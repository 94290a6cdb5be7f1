//! The loopback TCP fabric: a full mesh of framed socket streams
//! between real OS processes (or threads, in tests).
//!
//! Every rank owns one [`TcpLink`]: a stream per peer, one reader
//! thread per stream decoding [`Frame`]s into a single merged inbox,
//! and the reliability layer ([`crate::rel`]) running at the framing
//! layer — data frames are checksummed, acknowledged, nacked when
//! they arrive damaged, retransmitted with bounded exponential
//! backoff, and deduplicated on arrival. TCP alone already orders and
//! retransmits bytes; the frame discipline adds what TCP cannot:
//! end-to-end payload integrity above the transport, explicit
//! liveness (heartbeats, dead-link verdicts with a named peer), and a
//! protocol the chaos fabric can attack deterministically in tests.
//!
//! A payload crosses this module without being copied. On send the
//! message is serialized once ([`WireMsg::to_bytes`]), digested once
//! ([`Frame::new`]), retained for retransmission by refcount
//! ([`RelTx::prepare`]) and handed to the kernel as one vectored
//! write of head, payload and checksum ([`Frame::write_to`]). On
//! receive the reader thread — behind a `BufReader`, so an ack or a
//! small frame costs one `read` — lands the payload directly in the
//! buffer that travels through the inbox to [`WireMsg::from_bytes`],
//! digesting it once on the way.
//!
//! Mesh construction is rendezvous-ordered: every rank binds its
//! listener *before* any address is shared, each rank dials every
//! lower rank and accepts from every higher rank, and the first frame
//! on a connection is a [`FrameKind::Hello`] naming the dialer — so
//! construction cannot deadlock and needs no global lock step.

use crate::frame::{Frame, FrameKind};
use crate::recorder::{FlightKind, FlightRecorder};
use crate::rel::{LinkTuning, RelRx, RelTx, RxVerdict, POLL_CEILING, POLL_FLOOR};
use crate::{FabricError, Link, LinkCounters, WireMsg};
use std::io::BufReader;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long mesh construction waits for every peer to dial in.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// An intact, first-delivery payload, in the buffer the reader
    /// thread read it into.
    Deliver { payload: Arc<Vec<u8>> },
    /// `peer`'s stream closed or failed.
    PeerLost { peer: usize, detail: String },
    /// The send state for `peer` exhausted its retry budget.
    Dead {
        peer: usize,
        seq: u64,
        attempts: u32,
    },
}

/// Per-peer send-side handles: the stream and the reliability state
/// (shared with the peer's reader thread, which clears acks and
/// answers nacks).
struct PeerHandle {
    stream: Arc<PeerStream>,
    tx: Arc<Mutex<RelTx>>,
}

/// One peer stream's write side; every frame is written whole under
/// `stream`. The reader thread never waits for that lock: a frame it
/// sends while the stream is busy is parked, and the holder writes it
/// before letting go. A reader that waited could wedge two ranks for
/// good — each blocked writing a large frame to the other while its
/// own reader, the thread that would drain the peer's write, waits
/// for the lock that write holds.
struct PeerStream {
    stream: Mutex<TcpStream>,
    parked: Mutex<Vec<Frame>>,
}

impl PeerStream {
    /// Writes `frame`, waiting for the stream.
    fn write(&self, frame: &Frame) -> std::io::Result<()> {
        let mut s = self.stream.lock().expect("stream lock poisoned");
        let written = frame.write_to(&mut *s);
        self.release(s);
        written
    }

    /// Writes `frame` now if the stream is free, else parks it for
    /// the holder. Never waits for the lock.
    fn write_or_park(&self, frame: Frame) {
        self.parked.lock().expect("park lock poisoned").push(frame);
        if let Ok(s) = self.stream.try_lock() {
            self.release(s);
        }
    }

    /// Writes the parked frames, then unlocks — and relocks to repeat
    /// if a frame was parked after the drain while the stream is free,
    /// so none is left behind: a parker that found the stream held
    /// pushed before this check, or tries the lock after this unlock.
    fn release<'a>(&'a self, mut s: MutexGuard<'a, TcpStream>) {
        loop {
            let parked = std::mem::take(&mut *self.parked.lock().expect("park lock poisoned"));
            for f in &parked {
                // Best effort, like any write the reader thread makes:
                // a broken stream surfaces on the receive path.
                let _ = f.write_to(&mut *s);
            }
            drop(s);
            if self.parked.lock().expect("park lock poisoned").is_empty() {
                return;
            }
            match self.stream.try_lock() {
                Ok(again) => s = again,
                Err(_) => return,
            }
        }
    }
}

/// Counts one frame (a single counter update covers everything it
/// adds: framed bytes, and for a data frame either its first send or
/// a retransmission).
fn count_frame(counters: &Mutex<LinkCounters>, frame: &Frame) {
    let mut c = counters.lock().expect("counter lock poisoned");
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

/// Counts one frame and writes it, vectored, under the stream lock.
fn write_frame(
    stream: &PeerStream,
    counters: &Mutex<LinkCounters>,
    frame: &Frame,
) -> std::io::Result<()> {
    count_frame(counters, frame);
    stream.write(frame)
}

/// The reader thread's send: counts `frame` and writes or parks it.
fn send_from_reader(stream: &PeerStream, counters: &Mutex<LinkCounters>, frame: Frame) {
    count_frame(counters, &frame);
    stream.write_or_park(frame);
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

impl<M> TcpLink<M> {
    /// Drives the protocol timers: timer-due retransmissions and
    /// idle-link heartbeats, for every peer.
    fn tick(&mut self) -> Result<(), FabricError> {
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
                let ping = if resend.is_empty() && tx.idle() {
                    tx.heartbeat(now)
                } else {
                    None
                };
                (resend, ping)
            };
            for f in &resend {
                note(
                    &self.config.recorder,
                    FlightKind::Retransmit,
                    peer,
                    f.seq,
                    f.payload.len() as u64,
                );
                let _ = write_frame(&h.stream, &self.counters, f);
            }
            if let Some(p) = ping {
                note(&self.config.recorder, FlightKind::HeartbeatSent, peer, 0, 0);
                let _ = write_frame(&h.stream, &self.counters, &p);
            }
        }
        Ok(())
    }

    fn accept_event(&mut self, ev: Event) -> Result<Option<Arc<Vec<u8>>>, FabricError>
    where
        M: WireMsg,
    {
        match ev {
            Event::Deliver { payload } => Ok(Some(payload)),
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

    fn decode_payload(payload: &[u8]) -> Result<M, FabricError>
    where
        M: WireMsg,
    {
        M::from_bytes(payload).map_err(FabricError::Decode)
    }
}

impl<M> Drop for TcpLink<M> {
    /// Shuts the sockets down (not merely drops them): reader
    /// threads — ours and the peers' — hold cloned descriptors, so
    /// only an explicit shutdown reliably propagates end-of-stream
    /// and lets every side unwind.
    fn drop(&mut self) {
        for h in self.peers.iter().flatten() {
            if let Ok(s) = h.stream.stream.lock() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
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

    fn send(&mut self, to: usize, msg: M) -> Result<(), FabricError> {
        let Some(h) = self.peers.get(to).and_then(Option::as_ref) else {
            return Err(FabricError::Io {
                peer: to,
                detail: "no stream to that rank".into(),
            });
        };
        let payload = msg.to_bytes();
        let frame = {
            let mut tx = h.tx.lock().expect("rel-tx lock poisoned");
            tx.prepare(payload, Instant::now())
        };
        note(
            &self.config.recorder,
            FlightKind::SendData,
            to,
            frame.seq,
            frame.payload.len() as u64,
        );
        let written = write_frame(&h.stream, &self.counters, &frame);
        // The ack cannot have been due before the bytes were out:
        // time its wait from here, not from `prepare`.
        h.tx.lock()
            .expect("rel-tx lock poisoned")
            .sent(frame.seq, Instant::now());
        written.map_err(|e| io_err(to, e))
    }

    fn try_recv(&mut self) -> Result<Option<M>, FabricError> {
        self.tick()?;
        loop {
            match self.inbox.try_recv() {
                Ok(ev) => {
                    if let Some(payload) = self.accept_event(ev)? {
                        return Ok(Some(Self::decode_payload(&payload)?));
                    }
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(FabricError::Closed),
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<M>, FabricError> {
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
                    if let Some(payload) = self.accept_event(ev)? {
                        return Ok(Some(Self::decode_payload(&payload)?));
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

/// The reader loop for one peer stream: decode frames, run the
/// receive-side reliability verdicts, answer acks/nacks, and feed
/// intact first deliveries into the merged inbox.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    peer: usize,
    me: usize,
    stream: TcpStream,
    writer: Arc<PeerStream>,
    tx: Arc<Mutex<RelTx>>,
    counters: Arc<Mutex<LinkCounters>>,
    events: Sender<Event>,
    recorder: Option<Arc<FlightRecorder>>,
) {
    let mut rx = RelRx::new();
    let mut stream = BufReader::new(stream);
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(frame)) => match frame.kind {
                FrameKind::Data => match rx.accept(&frame) {
                    RxVerdict::Deliver => {
                        note(
                            &recorder,
                            FlightKind::RecvData,
                            peer,
                            frame.seq,
                            frame.payload.len() as u64,
                        );
                        let ack = Frame::control(FrameKind::Ack, me as u32, frame.seq);
                        note(&recorder, FlightKind::AckSent, peer, frame.seq, 0);
                        send_from_reader(&writer, &counters, ack);
                        if events
                            .send(Event::Deliver {
                                payload: frame.payload,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    RxVerdict::Duplicate => {
                        note(&recorder, FlightKind::DupData, peer, frame.seq, 0);
                        let ack = Frame::control(FrameKind::Ack, me as u32, frame.seq);
                        note(&recorder, FlightKind::AckSent, peer, frame.seq, 0);
                        send_from_reader(&writer, &counters, ack);
                    }
                    RxVerdict::Corrupt => {
                        note(&recorder, FlightKind::CorruptData, peer, frame.seq, 0);
                        let nack = Frame::control(FrameKind::Nack, me as u32, frame.seq);
                        note(&recorder, FlightKind::NackSent, peer, frame.seq, 0);
                        send_from_reader(&writer, &counters, nack);
                    }
                },
                FrameKind::Ack => {
                    note(&recorder, FlightKind::AckRecv, peer, frame.seq, 0);
                    tx.lock().expect("rel-tx lock poisoned").on_ack(frame.seq);
                }
                FrameKind::Nack => {
                    note(&recorder, FlightKind::NackRecv, peer, frame.seq, 0);
                    let resend = {
                        let mut t = tx.lock().expect("rel-tx lock poisoned");
                        t.on_nack(frame.seq, Instant::now())
                    };
                    match resend {
                        Ok(Some(f)) => {
                            note(
                                &recorder,
                                FlightKind::Retransmit,
                                peer,
                                f.seq,
                                f.payload.len() as u64,
                            );
                            send_from_reader(&writer, &counters, f);
                        }
                        Ok(None) => {}
                        Err(d) => {
                            let _ = events.send(Event::Dead {
                                peer,
                                seq: d.seq,
                                attempts: d.attempts,
                            });
                            return;
                        }
                    }
                }
                FrameKind::Ping => {
                    note(&recorder, FlightKind::HeartbeatRecv, peer, 0, 0);
                }
                FrameKind::Hello => {}
            },
            Ok(None) => {
                note(&recorder, FlightKind::PeerLost, peer, 0, 0);
                let _ = events.send(Event::PeerLost {
                    peer,
                    detail: "stream closed".into(),
                });
                return;
            }
            Err(e) => {
                note(&recorder, FlightKind::PeerLost, peer, 0, 0);
                let _ = events.send(Event::PeerLost {
                    peer,
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

fn io_err(peer: usize, e: impl std::fmt::Display) -> FabricError {
    FabricError::Io {
        peer,
        detail: e.to_string(),
    }
}

/// Dials `addr` until it answers or `deadline` passes (rendezvous
/// guarantees the listener exists, but the accept loop may lag).
fn dial(addr: SocketAddr, deadline: Instant, peer: usize) -> Result<TcpStream, FabricError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io_err(peer, format!("connect {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Builds rank `rank`'s endpoint of an `nodes`-way mesh: dials every
/// lower rank at `peers[p]`, accepts from every higher rank on
/// `listener`, identifies each accepted stream by its Hello frame,
/// then spawns the per-peer reader threads.
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
    let counters = Arc::new(Mutex::new(LinkCounters::default()));
    let mut streams: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();

    // Dial every lower rank, introducing ourselves with a Hello.
    for (p, &addr) in peers.iter().enumerate().take(rank) {
        let stream = dial(addr, deadline, p)?;
        stream.set_nodelay(true).map_err(|e| io_err(p, e))?;
        let hello = Frame::control(FrameKind::Hello, rank as u32, config.epoch);
        let mut s = stream.try_clone().map_err(|e| io_err(p, e))?;
        hello.write_to(&mut s).map_err(|e| io_err(p, e))?;
        note(&config.recorder, FlightKind::Hello, p, 0, 0);
        streams[p] = Some(stream);
    }

    // Accept every higher rank; the Hello frame names the dialer.
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err(rank, e))?;
    let mut accepted = 0;
    while accepted < nodes - 1 - rank {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| io_err(rank, e))?;
                stream.set_nodelay(true).map_err(|e| io_err(rank, e))?;
                let mut s = stream.try_clone().map_err(|e| io_err(rank, e))?;
                let hello = Frame::read_from(&mut s)
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
                if p <= rank || p >= nodes {
                    return Err(io_err(rank, format!("Hello from unexpected rank {p}")));
                }
                note(&config.recorder, FlightKind::Hello, p, 0, 0);
                streams[p] = Some(stream);
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io_err(
                        rank,
                        format!(
                            "timed out with {accepted} of {} peers accepted",
                            nodes - 1 - rank
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(io_err(rank, e)),
        }
    }

    // Wire up per-peer reliability state and reader threads.
    let (events_tx, events_rx) = mpsc::channel();
    let mut handles: Vec<Option<PeerHandle>> = (0..nodes).map(|_| None).collect();
    for (p, slot) in streams.into_iter().enumerate() {
        let Some(stream) = slot else { continue };
        let read_half = stream.try_clone().map_err(|e| io_err(p, e))?;
        let writer = Arc::new(PeerStream {
            stream: Mutex::new(stream),
            parked: Mutex::new(Vec::new()),
        });
        let tx = Arc::new(Mutex::new(RelTx::new(
            rank as u32,
            LinkTuning::default(),
            Instant::now(),
        )));
        let thread_writer = Arc::clone(&writer);
        let thread_tx = Arc::clone(&tx);
        let thread_counters = Arc::clone(&counters);
        let thread_events = events_tx.clone();
        let thread_recorder = config.recorder.clone();
        std::thread::Builder::new()
            .name(format!("fabric-rx-{rank}-{p}"))
            .spawn(move || {
                reader_loop(
                    p,
                    rank,
                    read_half,
                    thread_writer,
                    thread_tx,
                    thread_counters,
                    thread_events,
                    thread_recorder,
                )
            })
            .map_err(|e| io_err(p, e))?;
        handles[p] = Some(PeerHandle { stream: writer, tx });
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

    #[test]
    fn reader_frames_never_wait_for_a_busy_stream() {
        let (listener, addr) = local_listener();
        let out = Arc::new(PeerStream {
            stream: Mutex::new(TcpStream::connect(addr).unwrap()),
            parked: Mutex::new(Vec::new()),
        });
        let (mut far, _) = listener.accept().unwrap();
        // The main thread is mid-write: the stream is held.
        let held = out.stream.lock().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let reader = Arc::clone(&out);
        let parker = std::thread::spawn(move || {
            reader.write_or_park(Frame::control(FrameKind::Ack, 1, 7));
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the reader's ack waited for the held stream");
        parker.join().unwrap();
        // The holder writes the parked ack before letting go.
        out.release(held);
        let ack = Frame::read_from(&mut far).unwrap().unwrap();
        assert_eq!((ack.kind, ack.seq), (FrameKind::Ack, 7));
        // A free stream takes the frame at once.
        out.write_or_park(Frame::control(FrameKind::Nack, 1, 8));
        let nack = Frame::read_from(&mut far).unwrap().unwrap();
        assert_eq!((nack.kind, nack.seq), (FrameKind::Nack, 8));
        assert!(out.parked.lock().unwrap().is_empty());
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
