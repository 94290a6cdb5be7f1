//! One suite for the one reliability machine, over the [`Frame`]s it
//! tracks on the socket fabric and on the runtime's fault-tolerant
//! channel link alike — the rules the model checker relies on too.

use hipress_chaos::Wire;
use hipress_fabric::frame::{Frame, FrameKind};
use hipress_fabric::rel::{
    classify, retry_decision, rto, LinkTuning, RelRx, RelTx, RetryDecision, RxVerdict,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// A payload derived from `tag`.
fn payload(tag: u32) -> Vec<u8> {
    vec![tag as u8; 9]
}

/// A data frame carrying [`payload`]`(tag)`.
fn frame(seq: u64, tag: u32) -> Frame {
    Frame::new(FrameKind::Data, 0, seq, payload(tag))
}

fn tuning(retry_budget: u32, base_ms: u64, max_ms: u64) -> LinkTuning {
    LinkTuning {
        retry_budget,
        base_backoff: Duration::from_millis(base_ms),
        max_backoff: Duration::from_millis(max_ms),
    }
}

fn tx_of(tuning: LinkTuning, now: Instant) -> RelTx {
    RelTx::new(0, tuning, now)
}

#[test]
fn rx_dedups_but_never_delivers_corrupt() {
    let mut rx = RelRx::new();
    let e = frame(0, 1);
    assert_eq!(rx.accept(&e), RxVerdict::Deliver);
    assert_eq!(rx.accept(&e), RxVerdict::Duplicate);
    let mut bad = frame(1, 2);
    bad.flip_bit(7);
    assert_eq!(rx.accept(&bad), RxVerdict::Corrupt);
    // The clean retransmission of seq 1 still delivers.
    assert_eq!(rx.accept(&frame(1, 2)), RxVerdict::Deliver);
}

#[test]
fn tx_retransmits_with_backoff_until_dead() {
    let base = Duration::from_millis(5);
    let now = Instant::now();
    let mut tx = tx_of(tuning(2, 5, 100), now);
    let e = tx.prepare(payload(4), now);
    assert_eq!((e.seq, e.attempt), (0, 0));
    assert!(!tx.idle());
    // Before the timer: nothing due.
    assert!(tx.due(now).unwrap().is_empty());
    // First expiry: attempt 1.
    let r = tx.due(now + base).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].attempt, 1);
    // Second expiry (backoff doubled): attempt 2 = the budget.
    let r = tx.due(now + base * 4).unwrap();
    assert_eq!(r[0].attempt, 2);
    // Third expiry exceeds the budget: dead link, and the owner can
    // still name what the dead seq carried.
    let dead = tx.due(now + base * 20).unwrap_err();
    assert_eq!((dead.seq, dead.attempts), (0, 3));
    assert_eq!(tx.get(dead.seq).map(|f| f.seq), Some(0));
    assert_eq!(tx.retransmits(), 2);
}

#[test]
fn ack_retires_and_nack_fast_retransmits() {
    let now = Instant::now();
    let mut tx = tx_of(tuning(3, 5, 100), now);
    let a = tx.prepare(payload(10), now);
    let b = tx.prepare(payload(11), now);
    assert_eq!((a.seq, b.seq), (0, 1));
    assert_eq!(tx.next_seq(), 2);
    assert!(tx.on_ack(0));
    assert!(!tx.on_ack(0), "double-ack must be inert");
    let r = tx.on_nack(1, now).unwrap().expect("nack retransmits");
    assert_eq!(r.attempt, 1);
    assert!(r.verify(), "retransmission must still verify");
    assert!(tx.on_nack(99, now).unwrap().is_none(), "unknown seq");
    assert!(tx.on_ack(1));
    assert!(tx.idle());
}

#[test]
fn nacks_exhaust_the_budget_too() {
    let now = Instant::now();
    let mut tx = tx_of(tuning(1, 5, 100), now);
    tx.prepare(payload(5), now);
    assert!(tx.on_nack(0, now).unwrap().is_some());
    let dead = tx.on_nack(0, now).unwrap_err();
    assert_eq!((dead.seq, dead.attempts), (0, 2));
}

/// The machine must *provably* delegate to the pure transition
/// functions: sweep the sender through every attempt and assert the
/// observable behaviour (timer deadlines, the exact attempt at which
/// the link dies) matches what the pure `rto`/`retry_decision` rules
/// predict for the same inputs.
#[test]
fn tx_delegates_to_pure_rto_and_retry_decision() {
    for budget in [0u32, 1, 2, 5, 8] {
        let base = Duration::from_millis(3);
        let max = Duration::from_millis(200);
        let now = Instant::now();
        let mut tx = tx_of(tuning(budget, 3, 200), now);
        tx.prepare(payload(1), now);
        let mut fired = now;
        let mut attempt = 0u32;
        loop {
            // The armed deadline is exactly the pure rule's rto for
            // the current attempt.
            let due = tx.next_due().expect("frame in flight");
            assert_eq!(due, fired + rto(base, max, attempt));
            attempt += 1;
            match (retry_decision(attempt, budget), tx.due(due)) {
                (RetryDecision::Retransmit, Ok(r)) => {
                    assert_eq!(r.len(), 1);
                    assert_eq!(r[0].attempt, attempt);
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
#[test]
fn rx_delegates_to_pure_classify() {
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
        let mut f = frame(seq, seq as u32);
        if corrupt {
            f.flip_bit(3);
        }
        let want = classify(f.verify(), seen.contains(&seq));
        assert_eq!(rx.accept(&f), want, "seq {seq} corrupt {corrupt}");
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
#[test]
fn due_is_ascending_and_names_the_lowest_dead_seq() {
    let now = Instant::now();
    let mut tx = tx_of(tuning(1, 1, 1), now);
    for tag in 0..40 {
        tx.prepare(payload(tag), now);
    }
    // Retire a scattering so the walk crosses gaps.
    for seq in [0, 7, 8, 31] {
        assert!(tx.on_ack(seq));
    }
    let later = now + Duration::from_millis(2);
    let resent: Vec<u64> = tx.due(later).unwrap().iter().map(|f| f.seq).collect();
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
