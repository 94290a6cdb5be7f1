//! The per-link reliability machine: bounded retransmission with
//! exponential backoff on the send side, verify-then-dedup on the
//! receive side, heartbeats on idle links.
//!
//! There is exactly one of these in the workspace. [`RelTx`] /
//! [`RelRx`] are generic over the item they track — anything
//! [`Sealed`] with a sequence number, an attempt counter and a
//! checksum — so the socket fabric runs them over [`Frame`]s, the
//! in-process fault-tolerant runtime runs them over its envelopes,
//! and `hipress-verify` exhausts the very same state machines. TCP
//! already retransmits lost segments, but it cannot detect payload
//! corruption above the transport or survive a deliberately faulty
//! link in tests — the checksums and nacks here can.
//!
//! Every *decision* — when to retransmit ([`rto`]), when to give up
//! ([`retry_decision`]), how to classify an arrival ([`classify`]) —
//! is a side-effect-free function the state machines delegate to, so
//! the rules can be pinned (and mutated, by the checker's seeded
//! defects) independently of the bookkeeping around them.
//!
//! Retention is by [`Clone`], and every item the machine tracks keeps
//! its bulk behind a refcount (a frame's payload, an envelope's
//! tensor): the in-flight entry and the item handed to the transport
//! share one buffer, and a retransmission is the same buffer again.
//! The receive side remembers delivered sequence numbers as a
//! contiguous watermark plus the few that arrived ahead of a gap, so
//! its state does not grow with the number of items ever delivered.

use crate::frame::{Frame, FrameKind};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// What the reliability machine needs from an item it tracks: a
/// per-link sequence number, a retransmission counter that sits
/// outside the checksum, and an integrity check.
pub trait Sealed: Clone {
    /// The per-link sequence number.
    fn seq(&self) -> u64;
    /// Transmissions so far beyond the first (0 = first send).
    fn attempt(&self) -> u32;
    /// Counts one more transmission.
    fn bump(&mut self);
    /// True when the carried checksum matches the content.
    fn verify(&self) -> bool;
}

/// The retransmission timeout for attempt `attempt`:
/// `base × 2^attempt`, capped at `max` (exponent itself clamped so
/// the shift cannot overflow).
pub fn rto(base: Duration, max: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(max)
}

/// What a sender does about an in-flight item that needs another
/// transmission (timer expiry or nack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Still within budget: retransmit with backed-off timer.
    Retransmit,
    /// The bumped attempt exceeds the retry budget: the link is dead.
    Dead,
}

/// The bounded-retry rule: `attempt` is the transmission count
/// *after* the bump (1 = first retransmission). The link survives
/// while `attempt <= retry_budget`.
pub fn retry_decision(attempt: u32, retry_budget: u32) -> RetryDecision {
    if attempt > retry_budget {
        RetryDecision::Dead
    } else {
        RetryDecision::Retransmit
    }
}

/// The receiver classification rule: verify *then* dedup. Integrity
/// comes first so every corrupt arrival is detected — including a
/// corrupted retransmission of an already-delivered sequence, which
/// dedup-first would silently swallow as a duplicate.
pub fn classify(intact: bool, already_seen: bool) -> RxVerdict {
    if !intact {
        RxVerdict::Corrupt
    } else if already_seen {
        RxVerdict::Duplicate
    } else {
        RxVerdict::Deliver
    }
}

/// Retry, backoff, and heartbeat knobs for one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTuning {
    /// Retransmissions allowed per item before the link is declared
    /// dead.
    pub retry_budget: u32,
    /// First retransmission timeout; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on the per-attempt backoff.
    pub max_backoff: Duration,
    /// Idle interval after which a ping is sent.
    pub heartbeat: Duration,
}

impl Default for LinkTuning {
    fn default() -> Self {
        Self {
            retry_budget: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            heartbeat: Duration::from_millis(25),
        }
    }
}

/// A link whose retry budget ran out: `seq` went unacknowledged for
/// `attempts` transmissions. The item stays in flight, so the owner
/// can still name what it carried ([`RelTx::get`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDead {
    /// The sequence number that exhausted the budget.
    pub seq: u64,
    /// Total transmissions attempted (1 + retries).
    pub attempts: u32,
}

/// Send-side reliability state for one directed link.
///
/// Every item enters the in-flight set with a retransmission timer;
/// [`RelTx::due`] returns items whose timer expired (with
/// exponentially backed-off next deadlines), and [`RelTx::on_ack`] /
/// [`RelTx::on_nack`] retire or fast-path retransmit them. When one
/// item exceeds the retry budget the link is declared dead.
///
/// The in-flight set is ordered by sequence number, so timer
/// retransmissions leave oldest-first and a dead link is always
/// reported for its lowest exhausted seq. `Clone` so the model
/// checker can fork a link mid-protocol and explore both branches of
/// a nondeterministic choice.
#[derive(Debug, Clone)]
pub struct RelTx<T = Frame> {
    src: u32,
    next_seq: u64,
    tuning: LinkTuning,
    /// seq → (item, next retransmission deadline).
    inflight: BTreeMap<u64, (T, Instant)>,
    /// Retransmissions performed (for fabric counters).
    retransmits: u64,
    last_sent: Instant,
}

/// The frame-specific surface: the only `new`, so an unannotated
/// `RelTx::new(..)` is a frame link.
impl RelTx<Frame> {
    /// Send state for frames originating at rank `src`.
    pub fn new(src: u32, tuning: LinkTuning, now: Instant) -> Self {
        Self::for_items(src, tuning, now)
    }

    /// Wraps `payload` in the next data frame and retains it (the
    /// same buffer, by refcount) for retransmission until
    /// acknowledged.
    pub fn prepare(&mut self, payload: Vec<u8>, now: Instant) -> Frame {
        let src = self.src;
        self.admit(now, |seq| Frame::new(FrameKind::Data, src, seq, payload))
    }

    /// A heartbeat ping when the link has been idle past the tuning's
    /// heartbeat interval; `None` otherwise.
    pub fn heartbeat(&mut self, now: Instant) -> Option<Frame> {
        if now.duration_since(self.last_sent) >= self.tuning.heartbeat {
            self.last_sent = now;
            return Some(Frame::control(FrameKind::Ping, self.src, 0));
        }
        None
    }
}

impl<T: Sealed> RelTx<T> {
    /// Send state for any sealed item type originating at rank `src`.
    pub fn for_items(src: u32, tuning: LinkTuning, now: Instant) -> Self {
        Self {
            src,
            next_seq: 0,
            tuning,
            inflight: BTreeMap::new(),
            retransmits: 0,
            last_sent: now,
        }
    }

    /// Assigns the next sequence number, lets `seal` build the item
    /// around it (attempt 0), arms its retransmission timer, and
    /// returns the item ready to send.
    pub fn admit(&mut self, now: Instant, seal: impl FnOnce(u64) -> T) -> T {
        let seq = self.next_seq;
        self.next_seq += 1;
        let item = seal(seq);
        debug_assert_eq!(
            item.seq(),
            seq,
            "sealed item must carry the seq it was given"
        );
        let due = now + rto(self.tuning.base_backoff, self.tuning.max_backoff, 0);
        self.inflight.insert(seq, (item.clone(), due));
        self.last_sent = now;
        item
    }

    /// Restarts `seq`'s retransmission timer from `now`, the instant
    /// its transmission actually finished. [`RelTx::admit`] arms the
    /// timer before the transport has taken a byte; when handing the
    /// item over takes long (a multi-megabyte write queued behind a
    /// busy peer), the owner calls this so the wait for the ack is
    /// measured from the end of the write, not from its start. A seq
    /// already acknowledged is left alone.
    pub fn sent(&mut self, seq: u64, now: Instant) {
        if let Some((item, due)) = self.inflight.get_mut(&seq) {
            *due = now
                + rto(
                    self.tuning.base_backoff,
                    self.tuning.max_backoff,
                    item.attempt(),
                );
            self.last_sent = now;
        }
    }

    /// Retires an acknowledged item. Returns false for unknown
    /// (already-retired or forged) sequence numbers.
    pub fn on_ack(&mut self, seq: u64) -> bool {
        self.inflight.remove(&seq).is_some()
    }

    /// Counts one more transmission of an in-flight item and re-arms
    /// its timer — the one place the retry budget is enforced.
    fn retransmit(
        tuning: &LinkTuning,
        seq: u64,
        (item, due): &mut (T, Instant),
        now: Instant,
    ) -> Result<T, LinkDead> {
        item.bump();
        if retry_decision(item.attempt(), tuning.retry_budget) == RetryDecision::Dead {
            return Err(LinkDead {
                seq,
                attempts: item.attempt(),
            });
        }
        *due = now + rto(tuning.base_backoff, tuning.max_backoff, item.attempt());
        Ok(item.clone())
    }

    /// Answers a nack: an immediate retransmission of `seq` (attempt
    /// bumped, timer re-armed), or `Ok(None)` when the seq is no
    /// longer in flight.
    ///
    /// # Errors
    ///
    /// [`LinkDead`] when the nack pushed the item past the retry
    /// budget.
    pub fn on_nack(&mut self, seq: u64, now: Instant) -> Result<Option<T>, LinkDead> {
        let Some(slot) = self.inflight.get_mut(&seq) else {
            return Ok(None);
        };
        let item = Self::retransmit(&self.tuning, seq, slot, now)?;
        self.retransmits += 1;
        self.last_sent = now;
        Ok(Some(item))
    }

    /// Collects every item whose retransmission timer expired at
    /// `now`, ascending by seq, bumping attempts and re-arming timers.
    ///
    /// # Errors
    ///
    /// [`LinkDead`] naming the lowest seq that exhausted the retry
    /// budget. The walk stops there: a dead link sends nothing more,
    /// so which resends were gathered before it no longer matters.
    pub fn due(&mut self, now: Instant) -> Result<Vec<T>, LinkDead> {
        let mut out = Vec::new();
        for (&seq, slot) in self.inflight.iter_mut() {
            if slot.1 <= now {
                out.push(Self::retransmit(&self.tuning, seq, slot, now)?);
            }
        }
        if !out.is_empty() {
            self.retransmits += out.len() as u64;
            self.last_sent = now;
        }
        Ok(out)
    }

    /// True when nothing awaits acknowledgement.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Retransmissions performed so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Earliest retransmission deadline among in-flight items, if
    /// any — lets the owner sleep until a timer can actually fire
    /// instead of polling on a fixed tick.
    pub fn next_due(&self) -> Option<Instant> {
        self.inflight.values().map(|(_, due)| *due).min()
    }

    /// The in-flight item with sequence number `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.inflight.get(&seq).map(|(item, _)| item)
    }

    /// `(seq, attempt)` for every in-flight item, ascending seq. The
    /// model checker fingerprints link state through this (timer
    /// deadlines deliberately excluded — the checker is untimed).
    pub fn inflight_meta(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.inflight
            .iter()
            .map(|(&seq, (item, _))| (seq, item.attempt()))
    }

    /// The sequence number the next [`RelTx::admit`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// What the receive side decided about an arriving data item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// Intact and new: deliver the payload, send an ack.
    Deliver,
    /// Intact but already seen (a retransmission raced its ack):
    /// re-ack, do not re-deliver.
    Duplicate,
    /// The checksum does not match: request a retransmission.
    Corrupt,
}

/// Receive-side reliability state for one directed link:
/// verify-then-dedup, in that order — a corrupt item is *not* marked
/// seen, so its clean retransmission still delivers.
///
/// Delivered sequence numbers are kept as a watermark (everything
/// below it was delivered) plus the delivered ones above it, which
/// exist only while an earlier seq is still missing — a link that
/// delivers in order holds no per-item state at all.
#[derive(Debug, Default, Clone)]
pub struct RelRx {
    /// Every seq below this has been delivered.
    watermark: u64,
    /// Delivered seqs above the watermark (never the watermark
    /// itself: reaching it advances the watermark instead).
    ahead: BTreeSet<u64>,
}

impl RelRx {
    /// Fresh receive state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Judges one arriving data item by the pure [`classify`] rule
    /// and marks delivered sequences seen.
    pub fn accept<T: Sealed>(&mut self, item: &T) -> RxVerdict {
        let seq = item.seq();
        let seen = seq < self.watermark || self.ahead.contains(&seq);
        let verdict = classify(item.verify(), seen);
        if verdict == RxVerdict::Deliver {
            if seq == self.watermark {
                self.watermark += 1;
                while self.ahead.remove(&self.watermark) {
                    self.watermark += 1;
                }
            } else {
                self.ahead.insert(seq);
            }
        }
        verdict
    }

    /// Every sequence number delivered so far, ascending — the model
    /// checker fingerprints receiver state through this.
    pub fn seen_seqs(&self) -> Vec<u64> {
        (0..self.watermark)
            .chain(self.ahead.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning() -> LinkTuning {
        LinkTuning {
            retry_budget: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            heartbeat: Duration::from_millis(5),
        }
    }

    #[test]
    fn ack_clears_pending() {
        let now = Instant::now();
        let mut tx = RelTx::new(0, tuning(), now);
        let f = tx.prepare(vec![1, 2, 3], now);
        assert!(!tx.idle());
        assert!(tx.on_ack(f.seq));
        assert!(tx.idle());
        assert!(!tx.on_ack(f.seq));
    }

    #[test]
    fn nack_resends_until_budget_then_dead() {
        let now = Instant::now();
        let mut tx = RelTx::new(0, tuning(), now);
        let f = tx.prepare(vec![9], now);
        let r1 = tx.on_nack(f.seq, now).unwrap().unwrap();
        assert_eq!(r1.attempt, 1);
        let r2 = tx.on_nack(f.seq, now).unwrap().unwrap();
        assert_eq!(r2.attempt, 2);
        assert!(tx.on_nack(f.seq, now).is_err());
        assert_eq!(tx.retransmits(), 2);
    }

    #[test]
    fn timer_retransmits_when_due() {
        let now = Instant::now();
        let mut tx = RelTx::new(0, tuning(), now);
        let f = tx.prepare(vec![7], now);
        assert!(tx.due(now).unwrap().is_empty());
        let later = now + Duration::from_millis(2);
        let resent = tx.due(later).unwrap();
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].seq, f.seq);
        assert_eq!(resent[0].attempt, 1);
    }

    #[test]
    fn ack_wait_is_timed_from_the_end_of_the_write() {
        let rto = Duration::from_millis(25);
        let tuning = LinkTuning {
            base_backoff: rto,
            max_backoff: Duration::from_secs(1),
            ..tuning()
        };
        let t0 = Instant::now();
        let mut tx = RelTx::new(0, tuning, t0);
        let f = tx.prepare(vec![7], t0);
        // The write of this frame outlived the whole base backoff.
        let written = t0 + Duration::from_millis(40);
        tx.sent(f.seq, written);
        assert!(tx.due(t0 + Duration::from_millis(41)).unwrap().is_empty());
        assert!(tx
            .due(written + rto - Duration::from_millis(1))
            .unwrap()
            .is_empty());
        let resent = tx.due(written + rto).unwrap();
        assert_eq!((resent.len(), resent[0].attempt), (1, 1));
        assert_eq!(tx.retransmits(), 1);
        // An acknowledged seq has no timer to restart.
        assert!(tx.on_ack(f.seq));
        tx.sent(f.seq, written + rto * 10);
        assert!(tx.idle() && tx.next_due().is_none());
    }

    #[test]
    fn retention_and_retransmission_share_the_payload_buffer() {
        use std::sync::Arc;
        let now = Instant::now();
        let mut tx = RelTx::new(0, tuning(), now);
        let frame = tx.prepare(vec![5; 4096], now);
        assert!(Arc::ptr_eq(
            &tx.get(frame.seq).unwrap().payload,
            &frame.payload
        ));
        let resent = tx.due(now + Duration::from_millis(2)).unwrap();
        assert!(Arc::ptr_eq(&resent[0].payload, &frame.payload));
        let nacked = tx.on_nack(frame.seq, now).unwrap().unwrap();
        assert!(Arc::ptr_eq(&nacked.payload, &frame.payload));
    }

    #[test]
    fn rx_state_is_a_watermark_plus_the_seqs_ahead_of_a_gap() {
        let mut rx = RelRx::new();
        let frame = |seq| Frame::new(FrameKind::Data, 0, seq, vec![seq as u8]);
        for seq in [0, 1, 4, 2, 6] {
            assert_eq!(rx.accept(&frame(seq)), RxVerdict::Deliver);
        }
        assert_eq!((rx.watermark, rx.ahead.len()), (3, 2));
        assert_eq!(rx.seen_seqs(), vec![0, 1, 2, 4, 6]);
        for seq in [0, 2, 4, 6] {
            assert_eq!(rx.accept(&frame(seq)), RxVerdict::Duplicate);
        }
        // Filling the gap folds everything contiguous into the
        // watermark; an in-order link keeps no per-item state.
        assert_eq!(rx.accept(&frame(3)), RxVerdict::Deliver);
        assert_eq!(rx.accept(&frame(5)), RxVerdict::Deliver);
        assert_eq!((rx.watermark, rx.ahead.len()), (7, 0));
        assert_eq!(rx.seen_seqs(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn rx_verifies_then_dedups() {
        let now = Instant::now();
        let mut tx = RelTx::new(0, tuning(), now);
        let mut rx = RelRx::new();
        let mut f = tx.prepare(vec![1, 2, 3, 4], now);
        let clean = f.clone();
        use hipress_chaos::Wire;
        f.flip_bit(3);
        // Corrupt first: nacked, and *not* marked seen.
        assert_eq!(rx.accept(&f), RxVerdict::Corrupt);
        // Clean retransmission still delivers.
        assert_eq!(rx.accept(&clean), RxVerdict::Deliver);
        assert_eq!(rx.accept(&clean), RxVerdict::Duplicate);
    }

    #[test]
    fn heartbeat_fires_on_idle_only() {
        let now = Instant::now();
        let mut tx = RelTx::new(3, tuning(), now);
        assert!(tx.heartbeat(now).is_none());
        let ping = tx.heartbeat(now + Duration::from_millis(6)).unwrap();
        assert_eq!(ping.kind, FrameKind::Ping);
        assert_eq!(ping.src, 3);
    }
}
