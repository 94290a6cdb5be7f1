//! The flight recorder: an always-on, fixed-size, lock-free ring of
//! protocol events.
//!
//! Every rank on the socket fabric keeps the last few hundred
//! frame-level events — data sends and deliveries, acks, nacks,
//! retransmissions, heartbeats, peer losses — in a ring of atomic
//! slots. Recording is a handful of relaxed atomic stores on the hot
//! path (no lock, no allocation, no syscall beyond the monotonic
//! clock read), cheap enough to leave on for every run. When a
//! synchronization fails, the coordinator collects each rank's ring
//! and `hipress postmortem` renders the merged, clock-corrected
//! last-seconds narrative that ends at the root cause.
//!
//! Concurrency contract: writers claim a slot with one
//! `fetch_add` on the global cursor, store the event fields relaxed,
//! then publish the slot's stamp (cursor value + 1) with a release
//! store. [`FlightRecorder::dump`] acquires stamps and skips empty
//! slots. A dump racing an active writer may observe one slot
//! mid-overwrite (mixed fields from two events); dumps are taken
//! after a failure, when the fabric has gone quiet, so in practice
//! the ring is stable — and a torn slot can at worst mislabel one
//! event, never corrupt memory or panic.

use hipress_util::codec::WireMsg;
use hipress_util::record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of events one ring retains.
pub const DEFAULT_CAPACITY: usize = 256;

record! {
    /// What a recorded protocol event was. The tag is both the wire
    /// byte and the kind's slot in a ring's `meta` word.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FlightKind ["FlightKind"] {
        /// A data frame was handed to the transport.
        SendData = 1,
        /// An intact, first-delivery data frame arrived.
        RecvData = 2,
        /// An intact but already-seen data frame arrived (re-acked).
        DupData = 3,
        /// A data frame arrived with a bad checksum (nacked).
        CorruptData = 4,
        /// An ack was sent for a received data frame.
        AckSent = 5,
        /// An ack arrived, clearing a pending frame.
        AckRecv = 6,
        /// A nack was sent, requesting retransmission.
        NackSent = 7,
        /// A nack arrived; the frame will be retransmitted.
        NackRecv = 8,
        /// A frame was retransmitted (nack- or timer-driven).
        Retransmit = 9,
        /// A liveness ping was sent on an idle link.
        HeartbeatSent = 10,
        /// A liveness ping arrived.
        HeartbeatRecv = 11,
        /// The peer's stream closed or failed.
        PeerLost = 12,
        /// A mesh-construction Hello was exchanged.
        Hello = 13,
        /// A runtime-level decision (e.g. a degrade verdict) noted into
        /// the ring by a layer above the fabric.
        Mark = 14,
    }
}

impl FlightKind {
    /// A short human label for postmortem rendering.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::SendData => "send",
            FlightKind::RecvData => "recv",
            FlightKind::DupData => "dup",
            FlightKind::CorruptData => "corrupt",
            FlightKind::AckSent => "ack-sent",
            FlightKind::AckRecv => "ack-recv",
            FlightKind::NackSent => "nack-sent",
            FlightKind::NackRecv => "nack-recv",
            FlightKind::Retransmit => "retransmit",
            FlightKind::HeartbeatSent => "ping-sent",
            FlightKind::HeartbeatRecv => "ping-recv",
            FlightKind::PeerLost => "peer-lost",
            FlightKind::Hello => "hello",
            FlightKind::Mark => "mark",
        }
    }
}

record! {
    /// One event read back out of a ring.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FlightEvent {
        /// Nanoseconds since the recorder's epoch (the owning process's
        /// trace epoch, so flight events and trace spans share one clock).
        pub ts_ns: u64,
        /// What happened.
        pub kind: FlightKind,
        /// The peer rank involved (the far end of the link).
        pub peer: u32,
        /// The frame sequence number involved, when one applies.
        pub seq: u64,
        /// Payload bytes involved, when they apply.
        pub bytes: u64,
    }
}

/// One ring slot. `stamp` is the claiming cursor value plus one (so
/// zero means never written) and is stored last, with release
/// ordering, to publish the other fields.
#[derive(Debug, Default)]
struct Slot {
    stamp: AtomicU64,
    ts_ns: AtomicU64,
    /// `kind` tag in the high 32 bits, peer rank in the low 32.
    meta: AtomicU64,
    seq: AtomicU64,
    bytes: AtomicU64,
}

/// The lock-free event ring. Shared as an `Arc` between the link's
/// send path, its reader threads, and the process runtime.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl FlightRecorder {
    /// A ring of [`DEFAULT_CAPACITY`] events timestamped against
    /// `epoch` — pass the process's trace epoch so flight events and
    /// trace spans share one clock.
    pub fn new(epoch: Instant) -> Self {
        Self::with_capacity(epoch, DEFAULT_CAPACITY)
    }

    /// A ring of `capacity` events (minimum 1).
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch,
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// The epoch event timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records one event. Lock-free: one `fetch_add` plus five
    /// relaxed/release stores.
    pub fn record(&self, kind: FlightKind, peer: u32, seq: u64, bytes: u64) {
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.meta
            .store(((kind as u64) << 32) | u64::from(peer), Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.bytes.store(bytes, Ordering::Relaxed);
        slot.stamp.store(idx + 1, Ordering::Release);
    }

    /// Total events recorded over the ring's lifetime (not just the
    /// ones still retained).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Reads the retained events oldest-first. Slots whose kind tag
    /// was torn by a racing writer are skipped rather than
    /// misreported.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut stamped: Vec<(u64, FlightEvent)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let Ok(kind) = FlightKind::from_bytes(&[(meta >> 32) as u8]) else {
                continue;
            };
            stamped.push((
                stamp,
                FlightEvent {
                    ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                    kind,
                    peer: meta as u32,
                    seq: slot.seq.load(Ordering::Relaxed),
                    bytes: slot.bytes.load(Ordering::Relaxed),
                },
            ));
        }
        stamped.sort_unstable_by_key(|&(stamp, _)| stamp);
        stamped.into_iter().map(|(_, ev)| ev).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn retains_the_last_capacity_events_in_order() {
        let rec = FlightRecorder::with_capacity(Instant::now(), 8);
        for i in 0..20u64 {
            rec.record(FlightKind::SendData, (i % 3) as u32, i, i * 10);
        }
        let events = rec.dump();
        assert_eq!(events.len(), 8);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        assert_eq!(rec.recorded(), 20);
        // Timestamps are monotone within one writer.
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn empty_ring_dumps_empty() {
        let rec = FlightRecorder::new(Instant::now());
        assert!(rec.dump().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring() {
        let rec = Arc::new(FlightRecorder::with_capacity(Instant::now(), 64));
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let rec = Arc::clone(&rec);
            joins.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    rec.record(FlightKind::RecvData, t, i, 0);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(rec.recorded(), 2000);
        let events = rec.dump();
        assert_eq!(events.len(), 64);
        for e in &events {
            assert!(e.peer < 4);
            assert!(e.seq < 500);
            assert_eq!(e.kind, FlightKind::RecvData);
        }
    }

    #[test]
    fn flight_event_round_trips_through_the_codec() {
        let ev = FlightEvent {
            ts_ns: 123_456_789,
            kind: FlightKind::Retransmit,
            peer: 3,
            seq: u64::MAX - 5,
            bytes: 4096,
        };
        let back = FlightEvent::from_bytes(&ev.to_bytes()).unwrap();
        assert_eq!(back, ev);
        hipress_util::codec::check_record(&ev);
    }

    #[test]
    fn every_kind_tag_round_trips() {
        for tag in 1..=14u8 {
            let kind = FlightKind::from_bytes(&[tag]).unwrap();
            assert_eq!(kind as u8, tag);
            assert_eq!(kind.to_bytes(), [tag]);
            assert!(!kind.label().is_empty());
            hipress_util::codec::check_record(&kind);
        }
        assert!(FlightKind::from_bytes(&[0]).is_err());
        assert!(FlightKind::from_bytes(&[15]).is_err());
    }
}
