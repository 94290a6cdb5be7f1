//! Per-iteration progress records and the bounded ring they travel
//! through.
//!
//! Workers publish one [`IterRecord`] per retired pipelined iteration.
//! The record is snapshotted into a fixed-capacity [`ProgressRing`]
//! whose writer path is wait-free (one `fetch_add` plus a handful of
//! relaxed stores) so the hot path never blocks on a reader. Readers
//! (the HTTP `/events` stream, the watchdog) poll the ring and skip
//! slots that are mid-write, using the same claim/stamp idiom as the
//! fabric's flight recorder: a writer claims a slot by bumping the
//! cursor, zeroes the slot's stamp, stores the payload, then publishes
//! the stamp with `Release`; a reader accepts a slot only when the
//! stamp reads as `seq + 1` both before and after copying the payload.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of slots retained by a [`ProgressRing`]. Old records are
/// overwritten once more than this many iterations have retired.
pub const RING_CAPACITY: usize = 1024;

hipress_util::record! {
    /// One retired pipelined iteration on one rank, as published by the
    /// runtime's progress hook. Its JSON object is the `/events` line.
    ///
    /// All latencies are nanoseconds. `comp_ns` aggregates the busy time
    /// of the compute-side primitives (source, encode, decode, merge,
    /// update, barrier, plus local aggregation); `commu_ns` aggregates the
    /// communication primitives (send, recv). `retransmits` is the
    /// per-iteration delta of the fabric's retransmission counter, not a
    /// running total.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IterRecord [json] {
        /// Rank that retired the iteration.
        pub node: u32,
        /// Iteration id (0-based).
        pub iter: u32,
        /// Publication timestamp, nanoseconds since the telemetry epoch.
        /// Stamped by the [`crate::Telemetry`] hub, not the worker, so all
        /// ranks share one clock.
        pub ts_ns: u64,
        /// Wall time from admission to retirement of this iteration.
        pub span_ns: u64,
        /// Busy nanoseconds in compute-side primitives this iteration.
        pub comp_ns: u64,
        /// Busy nanoseconds in send/recv this iteration.
        pub commu_ns: u64,
        /// Bytes put on the wire this iteration (post-compression).
        pub bytes_wire: u64,
        /// Gradient messages exchanged this iteration.
        pub messages: u64,
        /// Fabric retransmissions attributed to this iteration.
        pub retransmits: u64,
        /// Fault-tolerance events (retries, nacks, degraded chunks, ...)
        /// absorbed this iteration.
        pub faults: u64,
        /// Pipeline window the run was configured with.
        pub window: u32,
        /// Membership epoch the iteration ran under (0 on fixed runs;
        /// bumps when an elastic run evicts or re-admits a worker).
        pub epoch: u64,
    }
}

/// Anything that accepts per-iteration progress records.
///
/// Implemented by [`crate::Telemetry`] (thread backend: workers publish
/// straight into the hub) and by the process backend's control-stream
/// forwarder (workers ship records to the coordinator, which republishes
/// them into its hub).
pub trait ProgressSink: std::fmt::Debug + Sync {
    /// Publish one retired-iteration record. Must not block on readers.
    fn publish(&self, rec: IterRecord);
}

#[derive(Default)]
struct Slot {
    /// `seq + 1` once the payload for sequence `seq` is fully stored;
    /// zero while a writer is mid-flight.
    stamp: AtomicU64,
    /// `node << 32 | iter`.
    ids: AtomicU64,
    /// `window` widened to u64.
    window: AtomicU64,
    ts_ns: AtomicU64,
    span_ns: AtomicU64,
    comp_ns: AtomicU64,
    commu_ns: AtomicU64,
    bytes_wire: AtomicU64,
    messages: AtomicU64,
    retransmits: AtomicU64,
    faults: AtomicU64,
    epoch: AtomicU64,
}

/// Bounded multi-producer ring of [`IterRecord`]s with non-blocking,
/// possibly-lossy readers (a reader that falls more than
/// [`RING_CAPACITY`] records behind observes a gap, never a stall).
pub struct ProgressRing {
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for ProgressRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressRing")
            .field("published", &self.cursor.load(Ordering::Relaxed))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl Default for ProgressRing {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressRing {
    /// Empty ring with [`RING_CAPACITY`] slots.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(RING_CAPACITY);
        slots.resize_with(RING_CAPACITY, Slot::default);
        ProgressRing {
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Total records ever published (monotone; readers use it as the
    /// exclusive upper bound of the available sequence range).
    pub fn published(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Publish one record. Wait-free: claims a sequence number, then
    /// stores the payload into the slot it maps to.
    pub fn push(&self, rec: &IterRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // Invalidate the slot first so a concurrent reader of the
        // previous occupant cannot mistake a half-written payload for
        // a consistent one.
        slot.stamp.store(0, Ordering::Release);
        slot.ids.store(
            u64::from(rec.node) << 32 | u64::from(rec.iter),
            Ordering::Relaxed,
        );
        slot.window.store(u64::from(rec.window), Ordering::Relaxed);
        slot.ts_ns.store(rec.ts_ns, Ordering::Relaxed);
        slot.span_ns.store(rec.span_ns, Ordering::Relaxed);
        slot.comp_ns.store(rec.comp_ns, Ordering::Relaxed);
        slot.commu_ns.store(rec.commu_ns, Ordering::Relaxed);
        slot.bytes_wire.store(rec.bytes_wire, Ordering::Relaxed);
        slot.messages.store(rec.messages, Ordering::Relaxed);
        slot.retransmits.store(rec.retransmits, Ordering::Relaxed);
        slot.faults.store(rec.faults, Ordering::Relaxed);
        slot.epoch.store(rec.epoch, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Copy out every record with sequence number in `[from, published)`
    /// that is still resident and consistent, returning the records in
    /// sequence order together with the next `from` value to resume at.
    /// Records overwritten by lap-ahead writers (or caught mid-write)
    /// are silently skipped.
    pub fn read_since(&self, from: u64) -> (Vec<IterRecord>, u64) {
        let head = self.published();
        let cap = self.slots.len() as u64;
        let lo = from.max(head.saturating_sub(cap));
        let mut out = Vec::new();
        for seq in lo..head {
            let slot = &self.slots[(seq % cap) as usize];
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            let ids = slot.ids.load(Ordering::Relaxed);
            let rec = IterRecord {
                node: (ids >> 32) as u32,
                iter: (ids & u32::MAX as u64) as u32,
                ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                span_ns: slot.span_ns.load(Ordering::Relaxed),
                comp_ns: slot.comp_ns.load(Ordering::Relaxed),
                commu_ns: slot.commu_ns.load(Ordering::Relaxed),
                bytes_wire: slot.bytes_wire.load(Ordering::Relaxed),
                messages: slot.messages.load(Ordering::Relaxed),
                retransmits: slot.retransmits.load(Ordering::Relaxed),
                faults: slot.faults.load(Ordering::Relaxed),
                window: slot.window.load(Ordering::Relaxed) as u32,
                epoch: slot.epoch.load(Ordering::Relaxed),
            };
            // Seqlock validation: if the stamp changed while we copied,
            // a writer lapped us and the copy may be torn — drop it.
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            out.push(rec);
        }
        (out, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, iter: u32) -> IterRecord {
        IterRecord {
            node,
            iter,
            ts_ns: 10,
            span_ns: 20,
            comp_ns: 12,
            commu_ns: 8,
            bytes_wire: 1024,
            messages: 4,
            retransmits: 0,
            faults: 0,
            window: 2,
            epoch: 1,
        }
    }

    #[test]
    fn ring_round_trips_records_in_order() {
        let ring = ProgressRing::new();
        for i in 0..5 {
            ring.push(&rec(1, i));
        }
        let (got, next) = ring.read_since(0);
        assert_eq!(next, 5);
        assert_eq!(got.len(), 5);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, rec(1, i as u32));
        }
        // Resuming from the returned cursor yields nothing new.
        let (more, next2) = ring.read_since(next);
        assert!(more.is_empty());
        assert_eq!(next2, 5);
    }

    #[test]
    fn ring_overwrite_drops_oldest_but_keeps_latest() {
        let ring = ProgressRing::new();
        let total = RING_CAPACITY as u32 + 17;
        for i in 0..total {
            ring.push(&rec(0, i));
        }
        let (got, next) = ring.read_since(0);
        assert_eq!(next, u64::from(total));
        // The oldest 17 were overwritten; everything resident reads
        // back exactly and in order.
        assert_eq!(got.len(), RING_CAPACITY);
        assert_eq!(got[0].iter, 17);
        assert_eq!(got.last().unwrap().iter, total - 1);
    }

    #[test]
    fn concurrent_writers_never_yield_torn_records() {
        let ring = std::sync::Arc::new(ProgressRing::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for node in 0..4u32 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..2000u32 {
                        // Every field derived from (node, iter) so a torn
                        // read is detectable.
                        let r = IterRecord {
                            node,
                            iter: i,
                            ts_ns: u64::from(node) * 1_000_000 + u64::from(i),
                            span_ns: u64::from(i) + 1,
                            comp_ns: u64::from(i) * 2,
                            commu_ns: u64::from(i) * 3,
                            bytes_wire: u64::from(i) * 5,
                            messages: u64::from(i) * 7,
                            retransmits: u64::from(node),
                            faults: 0,
                            window: node + 1,
                            epoch: u64::from(node) + u64::from(i) * 11,
                        };
                        ring.push(&r);
                    }
                });
            }
            let ring2 = std::sync::Arc::clone(&ring);
            let stop2 = std::sync::Arc::clone(&stop);
            s.spawn(move || {
                let mut from = 0;
                while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                    let (recs, next) = ring2.read_since(from);
                    from = next;
                    for r in recs {
                        assert_eq!(r.span_ns, u64::from(r.iter) + 1);
                        assert_eq!(r.comp_ns, u64::from(r.iter) * 2);
                        assert_eq!(r.commu_ns, u64::from(r.iter) * 3);
                        assert_eq!(r.bytes_wire, u64::from(r.iter) * 5);
                        assert_eq!(r.messages, u64::from(r.iter) * 7);
                        assert_eq!(r.retransmits, u64::from(r.node));
                        assert_eq!(r.window, r.node + 1);
                        assert_eq!(r.epoch, u64::from(r.node) + u64::from(r.iter) * 11);
                    }
                }
            });
            // Writers finish, then release the reader.
            while ring.published() < 8000 {
                std::thread::yield_now();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(ring.published(), 8000);
    }

    #[test]
    fn record_survives_hostile_bytes() {
        hipress_util::codec::check_record(&IterRecord {
            node: 1,
            iter: 2,
            ts_ns: 3,
            span_ns: 4,
            comp_ns: 5,
            commu_ns: 6,
            bytes_wire: 7,
            messages: 8,
            retransmits: 9,
            faults: 10,
            window: 11,
            epoch: 12,
        });
    }
}
