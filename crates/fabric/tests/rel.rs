//! One suite for the one reliability machine: every test here is
//! generic over the tracked item and runs twice — over the socket
//! fabric's [`Frame`]s and over the in-process fault-tolerant
//! runtime's [`Envelope`]s — so neither transport can drift from the
//! rules the other (and the model checker) relies on.

use hipress_chaos::Wire;
use hipress_core::graph::TaskId;
use hipress_fabric::frame::{Frame, FrameKind};
use hipress_fabric::rel::{
    classify, retry_decision, rto, LinkTuning, RelRx, RelTx, RetryDecision, RxVerdict, Sealed,
};
use hipress_runtime::protocol::Envelope;
use hipress_runtime::Payload;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sealed data frame with a payload derived from `tag`.
fn frame(seq: u64, tag: u32) -> Frame {
    Frame::new(FrameKind::Data, 0, seq, vec![tag as u8; 9])
}

/// A sealed data envelope announcing task `tag`.
fn envelope(seq: u64, tag: u32) -> Envelope {
    let payload = Payload::Raw(vec![tag as f32 + 0.5, -1.0]);
    Envelope::data(0, seq, TaskId(tag), Some(Arc::new(payload)), 0)
}

/// What the suite needs of an item: the machine's bound, printable.
trait Item: Sealed + std::fmt::Debug {}
impl<T: Sealed + std::fmt::Debug> Item for T {}

fn tuning(retry_budget: u32, base_ms: u64, max_ms: u64) -> LinkTuning {
    LinkTuning {
        retry_budget,
        base_backoff: Duration::from_millis(base_ms),
        max_backoff: Duration::from_millis(max_ms),
    }
}

fn tx_of<T: Sealed>(tuning: LinkTuning, now: Instant) -> RelTx<T> {
    RelTx::for_items(0, tuning, now)
}

fn rx_dedups_but_never_delivers_corrupt<T: Item + Wire>(seal: fn(u64, u32) -> T) {
    let mut rx = RelRx::new();
    let e = seal(0, 1);
    assert_eq!(rx.accept(&e), RxVerdict::Deliver);
    assert_eq!(rx.accept(&e), RxVerdict::Duplicate);
    let mut bad = seal(1, 2);
    bad.flip_bit(7);
    assert_eq!(rx.accept(&bad), RxVerdict::Corrupt);
    // The clean retransmission of seq 1 still delivers.
    assert_eq!(rx.accept(&seal(1, 2)), RxVerdict::Deliver);
}

fn tx_retransmits_with_backoff_until_dead<T: Item>(seal: fn(u64, u32) -> T) {
    let base = Duration::from_millis(5);
    let now = Instant::now();
    let mut tx = tx_of(tuning(2, 5, 100), now);
    let e = tx.admit(now, |seq| seal(seq, 4));
    assert_eq!((e.seq(), e.attempt()), (0, 0));
    assert!(!tx.idle());
    // Before the timer: nothing due.
    assert!(tx.due(now).unwrap().is_empty());
    // First expiry: attempt 1.
    let r = tx.due(now + base).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].attempt(), 1);
    // Second expiry (backoff doubled): attempt 2 = the budget.
    let r = tx.due(now + base * 4).unwrap();
    assert_eq!(r[0].attempt(), 2);
    // Third expiry exceeds the budget: dead link, and the owner can
    // still name what the dead seq carried.
    let dead = tx.due(now + base * 20).unwrap_err();
    assert_eq!((dead.seq, dead.attempts), (0, 3));
    assert_eq!(tx.get(dead.seq).map(Sealed::seq), Some(0));
    assert_eq!(tx.retransmits(), 2);
}

fn ack_retires_and_nack_fast_retransmits<T: Item>(seal: fn(u64, u32) -> T) {
    let now = Instant::now();
    let mut tx = tx_of(tuning(3, 5, 100), now);
    let a = tx.admit(now, |seq| seal(seq, 10));
    let b = tx.admit(now, |seq| seal(seq, 11));
    assert_eq!((a.seq(), b.seq()), (0, 1));
    assert_eq!(tx.next_seq(), 2);
    assert!(tx.on_ack(0));
    assert!(!tx.on_ack(0), "double-ack must be inert");
    let r = tx.on_nack(1, now).unwrap().expect("nack retransmits");
    assert_eq!(r.attempt(), 1);
    assert!(r.verify(), "retransmission must still verify");
    assert!(tx.on_nack(99, now).unwrap().is_none(), "unknown seq");
    assert!(tx.on_ack(1));
    assert!(tx.idle());
}

fn nacks_exhaust_the_budget_too<T: Item>(seal: fn(u64, u32) -> T) {
    let now = Instant::now();
    let mut tx = tx_of(tuning(1, 5, 100), now);
    tx.admit(now, |seq| seal(seq, 5));
    assert!(tx.on_nack(0, now).unwrap().is_some());
    let dead = tx.on_nack(0, now).unwrap_err();
    assert_eq!((dead.seq, dead.attempts), (0, 2));
}

/// The machine must *provably* delegate to the pure transition
/// functions: sweep the sender through every attempt and assert the
/// observable behaviour (timer deadlines, the exact attempt at which
/// the link dies) matches what the pure `rto`/`retry_decision` rules
/// predict for the same inputs.
fn tx_delegates_to_pure_rto_and_retry_decision<T: Item>(seal: fn(u64, u32) -> T) {
    for budget in [0u32, 1, 2, 5, 8] {
        let base = Duration::from_millis(3);
        let max = Duration::from_millis(200);
        let now = Instant::now();
        let mut tx = tx_of(tuning(budget, 3, 200), now);
        tx.admit(now, |seq| seal(seq, 1));
        let mut fired = now;
        let mut attempt = 0u32;
        loop {
            // The armed deadline is exactly the pure rule's rto for
            // the current attempt.
            let due = tx.next_due().expect("item in flight");
            assert_eq!(due, fired + rto(base, max, attempt));
            attempt += 1;
            match (retry_decision(attempt, budget), tx.due(due)) {
                (RetryDecision::Retransmit, Ok(r)) => {
                    assert_eq!(r.len(), 1);
                    assert_eq!(r[0].attempt(), attempt);
                    fired = due;
                }
                (RetryDecision::Dead, Err(dead)) => {
                    assert_eq!(dead.attempts, attempt);
                    break;
                }
                (want, got) => panic!(
                    "budget {budget} attempt {attempt}: pure rule says {want:?}, machine did {:?}",
                    got.map(|r| r.len())
                ),
            }
        }
    }
}

/// [`RelRx::accept`] must agree with the pure [`classify`] rule on
/// every (intact, seen) combination, in every order.
fn rx_delegates_to_pure_classify<T: Item + Wire>(seal: fn(u64, u32) -> T) {
    let mut rx = RelRx::new();
    let mut seen: HashSet<u64> = HashSet::new();
    // Arrivals chosen to hit: fresh, duplicate, corrupt-fresh,
    // corrupt-of-seen, clean retransmit after corrupt.
    for (seq, corrupt) in [
        (0, false),
        (0, false),
        (1, true),
        (1, false),
        (1, true),
        (2, true),
        (2, false),
        (0, true),
    ] {
        let mut item = seal(seq, seq as u32);
        if corrupt {
            item.flip_bit(3);
        }
        let want = classify(item.verify(), seen.contains(&seq));
        assert_eq!(rx.accept(&item), want, "seq {seq} corrupt {corrupt}");
        if want == RxVerdict::Deliver {
            seen.insert(seq);
        }
        let mut mirror: Vec<u64> = seen.iter().copied().collect();
        mirror.sort_unstable();
        assert_eq!(rx.seen_seqs(), mirror);
    }
}

/// Timer retransmissions leave oldest-first, and a link whose budget
/// ran out on several seqs at once is reported dead for the lowest.
fn due_is_ascending_and_names_the_lowest_dead_seq<T: Item>(seal: fn(u64, u32) -> T) {
    let now = Instant::now();
    let mut tx = tx_of(tuning(1, 1, 1), now);
    for tag in 0..40 {
        tx.admit(now, |seq| seal(seq, tag));
    }
    // Retire a scattering so the walk crosses gaps.
    for seq in [0, 7, 8, 31] {
        assert!(tx.on_ack(seq));
    }
    let later = now + Duration::from_millis(2);
    let resent: Vec<u64> = tx.due(later).unwrap().iter().map(Sealed::seq).collect();
    assert_eq!(resent.len(), 36);
    assert!(
        resent.windows(2).all(|w| w[0] < w[1]),
        "not ascending: {resent:?}"
    );
    // Every survivor is now at the budget; ack the two lowest so the
    // lowest exhausted seq is 3, whatever order a hash would visit.
    assert!(tx.on_ack(1) && tx.on_ack(2));
    let dead = tx.due(later + Duration::from_millis(2)).unwrap_err();
    assert_eq!((dead.seq, dead.attempts), (3, 2));
    let meta: Vec<(u64, u32)> = tx.inflight_meta().collect();
    assert!(meta.windows(2).all(|w| w[0].0 < w[1].0));
}

macro_rules! over_both_items {
    ($($test:ident),* $(,)?) => {
        mod frames {
            $(#[test] fn $test() { super::$test(super::frame) })*
        }
        mod envelopes {
            $(#[test] fn $test() { super::$test(super::envelope) })*
        }
    };
}

over_both_items!(
    rx_dedups_but_never_delivers_corrupt,
    tx_retransmits_with_backoff_until_dead,
    ack_retires_and_nack_fast_retransmits,
    nacks_exhaust_the_budget_too,
    tx_delegates_to_pure_rto_and_retry_decision,
    rx_delegates_to_pure_classify,
    due_is_ascending_and_names_the_lowest_dead_seq,
);

/// The rto curve itself: doubling, then capped; shift-safe at absurd
/// attempts.
#[test]
fn rto_doubles_then_caps() {
    let base = Duration::from_millis(5);
    let max = Duration::from_millis(60);
    assert_eq!(rto(base, max, 0), Duration::from_millis(5));
    assert_eq!(rto(base, max, 1), Duration::from_millis(10));
    assert_eq!(rto(base, max, 3), Duration::from_millis(40));
    assert_eq!(rto(base, max, 4), max);
    assert_eq!(rto(base, max, 1000), max);
}
