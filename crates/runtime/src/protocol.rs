//! The fault-tolerant wire protocol for CaSync-RT.
//!
//! The trusted loop relies on its channel fabric the way the paper
//! trusts NCCL: messages arrive, once, intact. This module is what
//! the engine speaks when that trust is revoked (a fault plan in
//! [`crate::RunOptions`]): every inter-node message becomes a
//! sequence-numbered, checksummed [`Envelope`]; receivers verify and
//! deduplicate ([`RelRx`]), acknowledge good data, and nack corrupt
//! data; senders keep unacknowledged envelopes in a retransmission
//! buffer with exponential backoff and a bounded retry budget
//! ([`RelTx`]). The seq/ack/nack/retry machine itself is
//! [`hipress_fabric::rel`] — the one the socket fabric runs over
//! frames — re-exported here so the protocol's rules read as one
//! module.
//!
//! The checksum covers everything delivery-relevant — source,
//! sequence number, task, payload bytes — but *not* the attempt
//! counter, so a retransmission carries the original digest and the
//! receiver cannot be confused by which attempt got through.

use crate::engine::Payload;
use hipress_core::graph::TaskId;
use hipress_fabric::frame::fnv_bytes;
use hipress_fabric::rel::Sealed;
use std::sync::Arc;
use std::time::Duration;

pub use hipress_fabric::frame::{fnv, FNV_OFFSET};
pub use hipress_fabric::rel::{classify, LinkDead, LinkTuning, RelRx, RelTx, RxVerdict};

/// What an envelope carries.
#[derive(Debug, Clone)]
pub enum Body {
    /// A remote task completed; for `Send` tasks the payload rides
    /// along (the message *is* the transfer).
    Data {
        /// The completed task.
        task: TaskId,
        /// The payload, for `Send` completions.
        payload: Option<Arc<Payload>>,
    },
    /// Data `seq` arrived intact; the sender may drop it from its
    /// retransmission buffer.
    Ack {
        /// The acknowledged data sequence number.
        seq: u64,
    },
    /// Data `seq` arrived corrupt; the sender should retransmit now.
    Nack {
        /// The rejected data sequence number.
        seq: u64,
    },
    /// A peer hit an error; unwind. (Control-plane: never injected
    /// with faults, so an abort always gets through.)
    Abort,
    /// Every node has finished and drained its links; lingering peers
    /// may exit now instead of on their next poll. (Control-plane,
    /// like [`Body::Abort`]: purely a wake-up, carries no state.)
    Done,
    /// Periodic liveness probe. A node that is alive but busy (or
    /// simply has nothing to send) keeps pinging; a stalled or
    /// crashed node cannot, which is exactly the distinction the
    /// straggler detector needs — silence then means *stuck*, not
    /// *slow*. Control-plane: the fault model stalls nodes, not
    /// probes.
    Ping,
}

/// One message on the fault-tolerant fabric.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The sending node.
    pub src: usize,
    /// Per-link sequence number (data envelopes; 0 for control).
    pub seq: u64,
    /// Which attempt this is (0 = first transmission). Excluded from
    /// the checksum; fault injection uses it for its decision hash.
    pub attempt: u32,
    /// The message itself.
    pub body: Body,
    /// FNV-1a digest of `src`, `seq`, and the body content.
    pub checksum: u64,
}

impl Envelope {
    /// Builds a sealed data envelope for `task` (attempt 0).
    pub fn data(src: usize, seq: u64, task: TaskId, payload: Option<Arc<Payload>>) -> Self {
        let mut e = Self {
            src,
            seq,
            attempt: 0,
            body: Body::Data { task, payload },
            checksum: 0,
        };
        e.checksum = e.digest();
        e
    }

    /// Builds a sealed control envelope (ack/nack/abort).
    pub fn control(src: usize, body: Body) -> Self {
        let mut e = Self {
            src,
            seq: 0,
            attempt: 0,
            body,
            checksum: 0,
        };
        e.checksum = e.digest();
        e
    }

    /// The checksum the envelope *should* carry: an FNV-1a fold over
    /// `src`, `seq`, a body tag, and the body's content (payload
    /// words included bit-exactly). The attempt counter is excluded —
    /// retransmissions carry the original digest.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv(h, self.src as u64);
        h = fnv(h, self.seq);
        match &self.body {
            Body::Data { task, payload } => {
                h = fnv(h, 1);
                h = fnv(h, u64::from(task.0));
                match payload.as_deref() {
                    None => h = fnv(h, 0),
                    Some(Payload::Raw(v)) => {
                        h = fnv(h, 1);
                        h = fnv(h, v.len() as u64);
                        for x in v {
                            h = fnv(h, u64::from(x.to_bits()));
                        }
                    }
                    Some(Payload::Compressed(b)) => {
                        h = fnv(h, 2);
                        h = fnv(h, b.len() as u64);
                        h = fnv_bytes(h, b);
                    }
                    Some(Payload::Skipped) => h = fnv(h, 3),
                }
            }
            Body::Ack { seq } => {
                h = fnv(h, 2);
                h = fnv(h, *seq);
            }
            Body::Nack { seq } => {
                h = fnv(h, 3);
                h = fnv(h, *seq);
            }
            Body::Abort => h = fnv(h, 4),
            Body::Done => h = fnv(h, 5),
            Body::Ping => h = fnv(h, 6),
        }
        h
    }

    /// True when the carried checksum matches the content.
    pub fn verify(&self) -> bool {
        self.checksum == self.digest()
    }

    /// The task a data envelope announces, if it is one.
    pub fn data_task(&self) -> Option<TaskId> {
        match &self.body {
            Body::Data { task, .. } => Some(*task),
            _ => None,
        }
    }
}

impl Sealed for Envelope {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn attempt(&self) -> u32 {
        self.attempt
    }

    fn bump(&mut self) {
        self.attempt += 1;
    }

    fn verify(&self) -> bool {
        Envelope::verify(self)
    }
}

impl hipress_chaos::Wire for Envelope {
    /// Only data payloads are corruptible: flipping gradient bits is
    /// the fault the checksum must catch. Control messages are
    /// loss-faulted but never mangled.
    fn payload_bits(&self) -> u64 {
        match &self.body {
            Body::Data {
                payload: Some(p), ..
            } => match p.as_ref() {
                Payload::Raw(v) => (v.len() * 32) as u64,
                Payload::Compressed(b) => (b.len() * 8) as u64,
                Payload::Skipped => 0,
            },
            _ => 0,
        }
    }

    fn flip_bit(&mut self, bit: u64) {
        if let Body::Data {
            payload: Some(p), ..
        } = &mut self.body
        {
            match Arc::make_mut(p) {
                Payload::Raw(v) => {
                    let i = (bit / 32) as usize;
                    v[i] = f32::from_bits(v[i].to_bits() ^ (1 << (bit % 32)));
                }
                Payload::Compressed(b) => {
                    b[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Payload::Skipped => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pure transition functions.
//
// Every protocol *decision* lives in a side-effect-free function of
// its inputs: the link rules (`rto`, `retry_decision`, `classify`) in
// `hipress_fabric::rel` beside the state machines that delegate to
// them, the straggler / degrade / membership rules below. The FT
// worker and the engine's degraded merge call these directly, and
// `hipress-verify`'s bounded model checker drives the very same
// functions, so there is exactly one implementation of the protocol
// logic to trust.
// ---------------------------------------------------------------------------

/// EWMA smoothing factor for peer inter-arrival gaps: the straggler
/// detector weighs the newest gap at 20%.
pub const EWMA_ALPHA: f64 = 0.2;

/// One EWMA step over a peer's inter-arrival gap (nanoseconds).
pub fn ewma_update(prev_ns: f64, gap_ns: f64) -> f64 {
    EWMA_ALPHA * gap_ns + (1.0 - EWMA_ALPHA) * prev_ns
}

/// The straggler silence threshold: a configured floor, or `factor`
/// times the observed EWMA gap, whichever is larger.
pub fn straggler_threshold_ns(floor_ns: u64, factor: f64, ewma_ns: f64) -> u64 {
    floor_ns.max((factor * ewma_ns) as u64)
}

/// True when a liveness probe is owed: `since_last` silence has
/// reached the heartbeat period.
pub fn heartbeat_due(since_last: Duration, period: Duration) -> bool {
    since_last >= period
}

/// The Partial-degrade rescale factor: a merge that gathered
/// `merged` remote contributions (plus the local one) instead of the
/// full `nodes` stands in for the missing peers by scaling up.
pub fn degrade_rescale(nodes: usize, merged: usize) -> f32 {
    nodes as f32 / (1 + merged) as f32
}

/// The whole-rank form of [`degrade_rescale`]: an aggregate standing
/// on the survivors of `nodes` members after `lost` of them died.
/// Equivalent to per-cell Partial degradation with every lost rank's
/// contribution skipped — `evict_rescale(n, 1) ==
/// degrade_rescale(n, n - 2)` — but stated over membership, which is
/// what the elastic drain boundary reasons in. `lost` must be less
/// than `nodes`.
pub fn evict_rescale(nodes: usize, lost: usize) -> f32 {
    debug_assert!(lost < nodes);
    nodes as f32 / (nodes - lost) as f32
}

// ---------------------------------------------------------------------------
// Elastic-membership transition rules.
//
// The same discipline as above: every *decision* the epoch state
// machine makes — which rendezvous frames to honour, where to drain
// to after a rank loss, how a member set maps onto mesh slots — is a
// pure function here, driven both by the elastic coordinator and by
// `hipress-verify`'s epoch-transition explorer.
// ---------------------------------------------------------------------------

/// The stale-epoch safety rule: a rendezvous-plane frame stamped with
/// `frame_epoch` is acted on only if it matches the current epoch.
/// A frame from a past epoch is a straggler from a membership that no
/// longer exists (acting on it could double-apply a handed-off
/// chunk); a frame from a future epoch cannot exist unless the
/// coordinator is lying about the bump order.
pub fn epoch_accepts(current: u64, frame_epoch: u64) -> bool {
    frame_epoch == current
}

/// The drain boundary after a rank loss: each survivor reports how
/// many segment iterations it had fully retired when the death
/// surfaced, and the segment's result stands at the *minimum*. Every
/// survivor has fully retired that iteration (so its flows are
/// committed everywhere), and no survivor's state past it is kept (so
/// nothing from a half-dead iteration — which may contain the
/// victim's last contributions — can be double-applied after the
/// re-plan).
pub fn drain_boundary(completed: &[u32]) -> u32 {
    completed.iter().copied().min().unwrap_or(0)
}

/// The dense mesh slot a global rank occupies in an epoch whose
/// (ascending) member list is `members` — or `None` if the rank is
/// not a member. Ownership of every chunk follows from the slot via
/// the strategy graph, so redistribution after a bump is a pure
/// function of the member set: every member computes the same mesh
/// without negotiation, and a survivor-set continuation is
/// bit-identical to a fresh run over the same set.
pub fn member_slot(members: &[u32], rank: u32) -> Option<u32> {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    members.binary_search(&rank).ok().map(|i| i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_chaos::Wire;

    fn raw(v: Vec<f32>) -> Option<Arc<Payload>> {
        Some(Arc::new(Payload::Raw(v)))
    }

    #[test]
    fn sealed_envelopes_verify() {
        let e = Envelope::data(1, 7, TaskId(3), raw(vec![1.0, -2.5, 0.0]));
        assert!(e.verify());
        let c = Envelope::control(0, Body::Ack { seq: 7 });
        assert!(c.verify());
    }

    #[test]
    fn any_single_payload_bitflip_is_detected() {
        let e = Envelope::data(0, 1, TaskId(9), raw(vec![0.5, 1.5, -3.25, 8.0]));
        for bit in 0..e.payload_bits() {
            let mut m = e.clone();
            m.flip_bit(bit);
            assert!(!m.verify(), "flip of payload bit {bit} went undetected");
        }
        let e = Envelope::data(
            0,
            2,
            TaskId(9),
            Some(Arc::new(Payload::Compressed(vec![
                0xAB, 0x00, 0xFF, 0x17, 0x80,
            ]))),
        );
        for bit in 0..e.payload_bits() {
            let mut m = e.clone();
            m.flip_bit(bit);
            assert!(!m.verify(), "flip of compressed bit {bit} went undetected");
        }
    }

    #[test]
    fn attempt_is_outside_the_checksum() {
        let mut e = Envelope::data(0, 1, TaskId(2), raw(vec![1.0]));
        e.attempt = 5;
        assert!(e.verify(), "retransmissions must carry a valid digest");
    }

    /// Pin the pure FT decision rules the worker and engine delegate
    /// to (their delegation is by direct call — see `ft.rs` /
    /// `engine.rs` — so pinning the functions pins the runtime).
    #[test]
    fn pure_ft_decisions_are_pinned() {
        // EWMA: 0.2 × new + 0.8 × old.
        assert_eq!(ewma_update(1000.0, 2000.0), 1200.0);
        assert_eq!(ewma_update(0.0, 500.0), 100.0);
        // Straggler threshold: floor wins until factor × ewma passes it.
        assert_eq!(straggler_threshold_ns(1_000, 8.0, 50.0), 1_000);
        assert_eq!(straggler_threshold_ns(1_000, 8.0, 200.0), 1_600);
        // Heartbeat: due exactly at the period boundary.
        let period = Duration::from_millis(50);
        assert!(!heartbeat_due(Duration::from_millis(49), period));
        assert!(heartbeat_due(period, period));
        // Degrade rescale: 4 nodes, merged 2 remote + 1 local = 3
        // contributions standing in for 4.
        let f = degrade_rescale(4, 2);
        assert!((f - 4.0 / 3.0).abs() < 1e-6);
        assert_eq!(degrade_rescale(3, 2), 1.0, "no holes, no scaling");
    }

    /// Whole-rank loss is the membership-level statement of Partial
    /// degradation. A rank that dies *between* encode and aggregate
    /// leaves a mixed picture — cells it reached before dying merged
    /// all `n - 1` remote contributions, cells it never reached
    /// merged `n - 2` — and the per-cell rule must rescale only the
    /// cells with the hole, by exactly the survivor ratio.
    #[test]
    fn whole_rank_loss_reduces_to_per_cell_partial() {
        for n in 2..=8usize {
            // A cell the dying rank reached: complete, no scaling.
            assert_eq!(degrade_rescale(n, n - 1), 1.0, "n = {n}");
            // A cell it never reached: one hole, survivor ratio.
            let per_cell = degrade_rescale(n, n - 2);
            let whole_rank = evict_rescale(n, 1);
            assert!(
                (per_cell - whole_rank).abs() < 1e-6,
                "n = {n}: per-cell {per_cell} vs whole-rank {whole_rank}"
            );
            assert!((whole_rank - n as f32 / (n - 1) as f32).abs() < 1e-6);
        }
        // Multi-rank loss: the survivors' mean stands in for every
        // hole at once.
        assert!((evict_rescale(4, 2) - 2.0).abs() < 1e-6);
        assert_eq!(evict_rescale(5, 0), 1.0, "no loss, no scaling");
    }

    #[test]
    fn membership_transition_rules_are_pinned() {
        // Stale-epoch rule: only the current epoch is honoured.
        assert!(epoch_accepts(3, 3));
        assert!(!epoch_accepts(3, 2), "straggler from a dead membership");
        assert!(!epoch_accepts(3, 4), "bump order violation");

        // Drain boundary: the minimum fully-retired count wins, so no
        // survivor carries state past the handoff point.
        assert_eq!(drain_boundary(&[5, 3, 7]), 3);
        assert_eq!(drain_boundary(&[4, 4, 4]), 4);
        assert_eq!(drain_boundary(&[0, 9]), 0);
        assert_eq!(drain_boundary(&[]), 0, "no survivors reporting yet");

        // Slot assignment is dense, order-preserving, and a pure
        // function of the member set.
        let members = [0, 2, 5];
        assert_eq!(member_slot(&members, 0), Some(0));
        assert_eq!(member_slot(&members, 2), Some(1));
        assert_eq!(member_slot(&members, 5), Some(2));
        assert_eq!(member_slot(&members, 1), None, "evicted rank has no slot");
        assert_eq!(member_slot(&[], 0), None);
    }

    #[test]
    fn skipped_payload_checksums_and_carries_no_bits() {
        let e = Envelope::data(2, 3, TaskId(8), Some(Arc::new(Payload::Skipped)));
        assert!(e.verify());
        assert_eq!(e.payload_bits(), 0);
        // Distinct from an empty payload.
        let none = Envelope::data(2, 3, TaskId(8), None);
        assert_ne!(e.checksum, none.checksum);
    }
}
