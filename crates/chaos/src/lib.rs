//! Deterministic fault injection for the CaSync fabric.
//!
//! A [`FaultPlan`] is a *seeded, pure* description of how a fabric
//! misbehaves: per-link probabilities for message **drop**, **delay**,
//! **duplication**, **reorder**, and payload **corruption**
//! (bit-flips on encoded gradients), plus per-node **stall** (pause
//! mid-protocol) and **crash** (stop mid-protocol) triggers. The plan
//! never touches global randomness: every decision is a hash of
//! `(plan seed, link, sequence number, attempt)`, so the *same message
//! on the same link suffers the same fate* on every run and on every
//! thread interleaving — which is what makes chaos runs reproducible
//! and recoverability a property of the plan, not of scheduling luck.
//!
//! Recoverability is structural, not probabilistic: once a message has
//! been attempted [`FaultPlan::fault_cap`] times, every further
//! attempt (and its acknowledgements) is delivered clean. A plan with
//! a cap below the runtime's retry budget therefore *cannot* defeat a
//! retransmitting protocol, while `fault_cap == u32::MAX` plans (e.g.
//! [`FaultPlan::blackhole`]) model genuinely dead links.
//!
//! An [`Injector`] applies a plan's verdicts to one link's outgoing
//! messages of any [`Wire`] type and returns what to deliver now; the
//! owner drives its held-message buffer from its poll loop, so delayed
//! and reordered deliveries need no extra threads and the injector
//! needs no transport of its own.

#![forbid(unsafe_code)]

use hipress_util::rng::{Rng64, SplitMix64};
use std::time::{Duration, Instant};

/// Per-link fault probabilities, all in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate: f64,
    /// Probability a delivered message is held back so later traffic
    /// on the link overtakes it.
    pub reorder: f64,
    /// Probability a delivered message is delayed.
    pub delay: f64,
    /// Upper bound on an injected delay, nanoseconds (uniform in
    /// `[1, max_delay_ns]` when a delay fires).
    pub max_delay_ns: u64,
    /// Probability one payload bit of a delivered message is flipped.
    pub corrupt: f64,
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        delay: 0.0,
        max_delay_ns: 0,
        corrupt: 0.0,
    };

    /// True when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay == 0.0
            && self.corrupt == 0.0
    }
}

/// A stall trigger: before executing its `at_task`-th local task the
/// node pauses for `dur_ns` wall-clock nanoseconds (a wedged-but-alive
/// peer; straggler detectors should notice it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// Zero-based index into the node's local execution order.
    pub at_task: usize,
    /// How long the node sleeps, nanoseconds.
    pub dur_ns: u64,
}

/// A crash trigger: before executing its `at_task`-th local task the
/// node stops mid-protocol without telling anyone (its channels
/// disconnect; peers must diagnose the silence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Zero-based index into the node's local execution order.
    pub at_task: usize,
}

/// Per-node fault triggers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFaults {
    /// Pause mid-protocol (recoverable by waiting or degrading).
    pub stall: Option<Stall>,
    /// Stop mid-protocol (never recoverable).
    pub crash: Option<Crash>,
}

/// A complete, seeded fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision hash.
    pub seed: u64,
    /// Faults applied to links without a dedicated entry.
    pub default_link: LinkFaults,
    /// Per-link overrides, keyed by `(src, dst)`.
    pub links: Vec<((usize, usize), LinkFaults)>,
    /// Per-node stall/crash triggers.
    pub nodes: Vec<(usize, NodeFaults)>,
    /// After this many faulty attempts of one message, every further
    /// attempt (and its acks) is delivered clean. `u32::MAX` means the
    /// plan may defeat any retry budget (unrecoverable links).
    pub fault_cap: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none(0)
    }
}

/// Decision-stream salts: one per fault kind, so a message's drop,
/// duplicate, reorder, delay, and corruption draws are independent.
const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_REORDER: u64 = 3;
const SALT_DELAY: u64 = 4;
const SALT_CORRUPT: u64 = 5;

impl FaultPlan {
    /// A plan that injects nothing (the identity fabric).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            default_link: LinkFaults::NONE,
            links: Vec::new(),
            nodes: Vec::new(),
            fault_cap: 0,
        }
    }

    /// A lively but always-recoverable plan: every link drops ~15% of
    /// first attempts, duplicates and reorders ~10%, delays ~20% by up
    /// to 500µs, and corrupts ~10% of payloads — but the fault cap of
    /// 2 guarantees the third attempt of anything goes through clean.
    pub fn recoverable(seed: u64) -> Self {
        Self {
            default_link: LinkFaults {
                drop: 0.15,
                duplicate: 0.10,
                reorder: 0.10,
                delay: 0.20,
                max_delay_ns: 500_000,
                corrupt: 0.10,
            },
            fault_cap: 2,
            ..Self::none(seed)
        }
    }

    /// Heavy loss on every link (~60% drop), still capped at 2 faulty
    /// attempts per message — stress for the retransmission path.
    pub fn drop_storm(seed: u64) -> Self {
        Self {
            default_link: LinkFaults {
                drop: 0.60,
                ..LinkFaults::NONE
            },
            fault_cap: 2,
            ..Self::none(seed)
        }
    }

    /// Heavy payload corruption on every link (~60% of payloads get a
    /// flipped bit), capped at 2 — stress for checksum verification
    /// and nack-driven retransmission.
    pub fn corruption_storm(seed: u64) -> Self {
        Self {
            default_link: LinkFaults {
                corrupt: 0.60,
                ..LinkFaults::NONE
            },
            fault_cap: 2,
            ..Self::none(seed)
        }
    }

    /// A single stalled node: `node` pauses `dur` before its second
    /// local task; links stay healthy. What happens next is the
    /// degradation policy's call.
    pub fn stall(seed: u64, node: usize, dur: Duration) -> Self {
        let dur_ns = dur.as_nanos() as u64;
        let stall = Some(Stall { at_task: 1, dur_ns });
        Self::none(seed).with_node(node, NodeFaults { stall, crash: None })
    }

    /// A crashing node: `node` stops cold before its `at_task`-th
    /// local task. Never recoverable; peers must produce a clean
    /// structured error within their deadlines.
    pub fn crash(seed: u64, node: usize, at_task: usize) -> Self {
        let crash = Some(Crash { at_task });
        Self::none(seed).with_node(node, NodeFaults { stall: None, crash })
    }

    /// One dead link: everything from `src` to `dst` vanishes, with no
    /// fault cap — no retry budget survives it. The sender's
    /// retransmission budget must exhaust into a structured dead-link
    /// error.
    pub fn blackhole(seed: u64, src: usize, dst: usize) -> Self {
        let dead = LinkFaults {
            drop: 1.0,
            ..LinkFaults::NONE
        };
        Self {
            fault_cap: u32::MAX,
            ..Self::none(seed).with_link(src, dst, dead)
        }
    }

    /// Adds or replaces a per-link override.
    #[must_use]
    pub fn with_link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.links.retain(|(l, _)| *l != (src, dst));
        self.links.push(((src, dst), faults));
        self
    }

    /// Adds or replaces a per-node trigger set.
    #[must_use]
    pub fn with_node(mut self, node: usize, faults: NodeFaults) -> Self {
        self.nodes.retain(|(n, _)| *n != node);
        self.nodes.push((node, faults));
        self
    }

    /// The faults applied to the `src → dst` link.
    pub fn link_faults(&self, src: usize, dst: usize) -> &LinkFaults {
        self.links
            .iter()
            .find(|(l, _)| *l == (src, dst))
            .map(|(_, f)| f)
            .unwrap_or(&self.default_link)
    }

    /// The triggers for `node`, if any.
    pub fn node_faults(&self, node: usize) -> Option<&NodeFaults> {
        self.nodes.iter().find(|(n, _)| *n == node).map(|(_, f)| f)
    }

    /// True when a protocol with `retry_budget` retransmissions per
    /// message is guaranteed to complete under this plan: the fault
    /// cap leaves headroom inside the budget and no node crashes.
    /// (Stalls are recoverable — by waiting — so they do not count
    /// against this.)
    pub fn is_recoverable(&self, retry_budget: u32) -> bool {
        self.fault_cap < retry_budget && self.nodes.iter().all(|(_, f)| f.crash.is_none())
    }

    /// Rejects a plan naming a node outside `0..nodes`: a trigger or
    /// link override there would never fire, and the run would pass
    /// without the faults it was asked to survive.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        if let Some((n, _)) = self.nodes.iter().find(|(n, _)| *n >= nodes) {
            return Err(format!("fault plan names node {n} of {nodes}"));
        }
        if let Some(((s, d), _)) = self
            .links
            .iter()
            .find(|((s, d), _)| *s >= nodes || *d >= nodes)
        {
            return Err(format!("fault plan names link {s} -> {d} of {nodes} nodes"));
        }
        Ok(())
    }

    /// One deterministic uniform draw in `[0, 1)` for a fault decision.
    fn draw(&self, salt: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        self.decision_rng(salt, src, dst, seq, attempt).next_f64()
    }

    /// An independent generator per `(kind, link, seq, attempt)`.
    fn decision_rng(
        &self,
        salt: u64,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> SplitMix64 {
        let mut k = self.seed;
        for v in [salt, src as u64, dst as u64, seq, u64::from(attempt)] {
            k = (k ^ v)
                .wrapping_mul(0x0100_0000_01B3)
                .rotate_left(23)
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        SplitMix64::new(k)
    }

    /// The fate of attempt `attempt` of message `seq` on `src → dst`.
    ///
    /// Pure: the same arguments always return the same verdict.
    /// `payload_bits` is the corruptible size of the message (0 for
    /// control messages, which are never corrupted — only data
    /// payloads carry checksummable gradient bytes).
    pub fn verdict(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        payload_bits: u64,
    ) -> Verdict {
        let lf = *self.link_faults(src, dst);
        if lf.is_none() || attempt >= self.fault_cap {
            return Verdict::Deliver(Delivery::clean());
        }
        if self.draw(SALT_DROP, src, dst, seq, attempt) < lf.drop {
            return Verdict::Drop;
        }
        let mut d = Delivery::clean();
        if self.draw(SALT_DUP, src, dst, seq, attempt) < lf.duplicate {
            d.duplicate = true;
        }
        if self.draw(SALT_REORDER, src, dst, seq, attempt) < lf.reorder {
            d.reorder = true;
        }
        if lf.max_delay_ns > 0 && self.draw(SALT_DELAY, src, dst, seq, attempt) < lf.delay {
            let mut rng = self.decision_rng(SALT_DELAY ^ 0x5D, src, dst, seq, attempt);
            d.delay_ns = 1 + rng.next_below(lf.max_delay_ns);
        }
        if payload_bits > 0 && self.draw(SALT_CORRUPT, src, dst, seq, attempt) < lf.corrupt {
            let mut rng = self.decision_rng(SALT_CORRUPT ^ 0x5D, src, dst, seq, attempt);
            d.corrupt_bit = Some(rng.next_below(payload_bits));
        }
        Verdict::Deliver(d)
    }
}

/// A scripted membership schedule for an *elastic* run: which ranks
/// crash at which global iterations, and when crashed ranks come
/// back. Unlike [`FaultPlan`]'s probabilistic link faults this is a
/// pure script — elastic chaos is about surviving whole-rank loss,
/// and the interesting schedules (lose one worker, lose it and get it
/// back, lose it repeatedly) are enumerable by hand.
///
/// Crashes kill the rank *hard* right before it runs the named global
/// iteration: no abort broadcast, no goodbye on any channel — peers
/// must discover the loss through the transport, exactly as they
/// would a real `kill -9`. Rejoins respawn the rank and admit it at
/// the first epoch boundary at or after the named iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipPlan {
    /// `(global rank, global iteration)`: the rank crashes right
    /// before running that iteration.
    pub crashes: Vec<(u32, u32)>,
    /// `(global rank, global iteration)`: respawn the rank and admit
    /// it at the first epoch boundary at or after that iteration.
    pub rejoins: Vec<(u32, u32)>,
}

impl MembershipPlan {
    /// A schedule that changes nothing — the run stays at epoch 0.
    pub fn none() -> Self {
        Self::default()
    }

    /// Lose `rank` for good: it crashes before global iteration
    /// `at_iter` and never comes back. The survivors re-plan and
    /// finish the run without it.
    pub fn crash(rank: u32, at_iter: u32) -> Self {
        MembershipPlan {
            crashes: vec![(rank, at_iter)],
            rejoins: Vec::new(),
        }
    }

    /// Lose `rank` at `at_iter`, then get it back: a fresh process is
    /// respawned and re-admitted at the first epoch boundary at or
    /// after `rejoin_at`. The final membership equals the initial one.
    pub fn crash_then_rejoin(rank: u32, at_iter: u32, rejoin_at: u32) -> Self {
        MembershipPlan {
            crashes: vec![(rank, at_iter)],
            rejoins: vec![(rank, rejoin_at)],
        }
    }

    /// A flapping worker: `rank` crashes at `first_crash`, rejoins
    /// `period` iterations later, crashes again `period` iterations
    /// after that, and so on for `times` crash/rejoin cycles. Ends
    /// rejoined, so the final membership equals the initial one.
    pub fn flap(rank: u32, first_crash: u32, period: u32, times: u32) -> Self {
        let period = period.max(1);
        let mut plan = MembershipPlan::default();
        for cycle in 0..times {
            let crash_at = first_crash + cycle * 2 * period;
            plan.crashes.push((rank, crash_at));
            plan.rejoins.push((rank, crash_at + period));
        }
        plan
    }

    /// Rejects events outside the run, under either loss policy: a
    /// crash or rejoin naming a rank outside `0..nodes`, or one at or
    /// past the last iteration (there is no later boundary to act at).
    pub fn check_range(&self, nodes: usize, iterations: u32) -> Result<(), String> {
        for &(rank, iter) in self.crashes.iter().chain(&self.rejoins) {
            if rank as usize >= nodes {
                return Err(format!("membership plan names rank {rank} of {nodes}"));
            }
            if iter >= iterations {
                return Err(format!(
                    "membership plan event at iteration {iter} of {iterations}"
                ));
            }
        }
        Ok(())
    }

    /// Rejects schedules the elastic runtime cannot honour: anything
    /// [`MembershipPlan::check_range`] rejects, or a schedule that
    /// could take the membership below two ranks at once (more
    /// simultaneous crashes than `nodes - 2`).
    pub fn validate(&self, nodes: usize, iterations: u32) -> Result<(), String> {
        self.check_range(nodes, iterations)?;
        if self.crashes.len() > nodes.saturating_sub(2) + self.rejoins.len() {
            return Err(format!(
                "{} crashes could leave fewer than 2 of {nodes} ranks",
                self.crashes.len()
            ));
        }
        Ok(())
    }
}

/// The fate of one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The message vanishes.
    Drop,
    /// The message is delivered, possibly mangled on the way.
    Deliver(Delivery),
}

/// How a delivered message is mangled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Deliver this many nanoseconds late (0 = immediately).
    pub delay_ns: u64,
    /// Deliver a second copy as well.
    pub duplicate: bool,
    /// Hold the message briefly so later traffic overtakes it.
    pub reorder: bool,
    /// Flip this payload bit before delivery.
    pub corrupt_bit: Option<u64>,
}

impl Delivery {
    /// An unmangled, immediate delivery.
    pub fn clean() -> Self {
        Self {
            delay_ns: 0,
            duplicate: false,
            reorder: false,
            corrupt_bit: None,
        }
    }
}

/// A message type the injector can corrupt: it exposes how many
/// payload bits it carries and lets the injector flip one of them.
/// Control messages report zero bits and are never corrupted.
pub trait Wire {
    /// Corruptible payload size in bits (0 = nothing to corrupt).
    fn payload_bits(&self) -> u64;
    /// Flips payload bit `bit` (callers guarantee
    /// `bit < payload_bits()`).
    fn flip_bit(&mut self, bit: u64);
}

/// Why a message is sitting in the held buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeldKind {
    Delay,
    Reorder,
}

/// How long a reordered message is held when no later traffic shows
/// up to overtake it (it degrades into a short delay).
const REORDER_HOLD: Duration = Duration::from_millis(1);

/// The fault injector for one directed link, `src → dst`.
///
/// Sends consult the plan's [`FaultPlan::verdict`] for the message's
/// `(seq, attempt)`; drops vanish, duplicates go out twice,
/// corruptions flip a payload bit, and delays/reorders park the
/// message in a held buffer that the owner drains from its poll loop
/// via [`Injector::release`] — no timer threads. The injector never
/// touches a transport: every message it lets through now is handed
/// to the caller's `deliver`, so the same injector sits in front of
/// any link.
pub struct Injector<T> {
    src: usize,
    dst: usize,
    held: Vec<(Instant, HeldKind, T)>,
}

impl<T: Wire + Clone> Injector<T> {
    /// The injector for the `src → dst` link.
    pub fn new(src: usize, dst: usize) -> Self {
        Self {
            src,
            dst,
            held: Vec::new(),
        }
    }

    /// Applies the plan's verdict to attempt `attempt` of sequence
    /// `seq`, handing `deliver` everything that goes out now: the
    /// message, its duplicate, and any reordered message it overtook.
    /// Returns the verdict as applied (a delayed message is not also
    /// reordered).
    pub fn send(
        &mut self,
        plan: &FaultPlan,
        seq: u64,
        attempt: u32,
        mut msg: T,
        mut deliver: impl FnMut(T),
    ) -> Verdict {
        let verdict = plan.verdict(self.src, self.dst, seq, attempt, msg.payload_bits());
        let Verdict::Deliver(mut d) = verdict else {
            return verdict;
        };
        if let Some(bit) = d.corrupt_bit {
            msg.flip_bit(bit);
        }
        if d.duplicate {
            deliver(msg.clone());
        }
        if d.delay_ns > 0 {
            let due = Instant::now() + Duration::from_nanos(d.delay_ns);
            self.held.push((due, HeldKind::Delay, msg));
            d.reorder = false;
        } else if d.reorder {
            let due = Instant::now() + REORDER_HOLD;
            self.held.push((due, HeldKind::Reorder, msg));
        } else {
            deliver(msg);
            // A later message overtaking a held one is exactly the
            // reorder we promised: release what it overtook.
            self.release_where(deliver, |_, kind| kind == HeldKind::Reorder);
        }
        Verdict::Deliver(d)
    }

    /// Hands `deliver` every held message whose due time has passed.
    /// Call this from the owner's poll loop.
    pub fn release(&mut self, now: Instant, deliver: impl FnMut(T)) {
        self.release_where(deliver, |due, _| due <= now);
    }

    fn release_where(
        &mut self,
        mut deliver: impl FnMut(T),
        due: impl Fn(Instant, HeldKind) -> bool,
    ) {
        let mut i = 0;
        while i < self.held.len() {
            if due(self.held[i].0, self.held[i].1) {
                deliver(self.held.remove(i).2);
            } else {
                i += 1;
            }
        }
    }

    /// Messages currently parked in the held buffer.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Earliest due time among held messages, if any — lets the owner
    /// sleep until something actually needs releasing instead of
    /// polling on a fixed tick.
    pub fn next_release(&self) -> Option<Instant> {
        self.held.iter().map(|(due, _, _)| *due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial Wire message: a vector of bytes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Blob(Vec<u8>);

    impl Wire for Blob {
        fn payload_bits(&self) -> u64 {
            (self.0.len() * 8) as u64
        }
        fn flip_bit(&mut self, bit: u64) {
            self.0[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let plan = FaultPlan::recoverable(42);
        for seq in 0..50u64 {
            for attempt in 0..3u32 {
                let a = plan.verdict(0, 1, seq, attempt, 1024);
                let b = plan.verdict(0, 1, seq, attempt, 1024);
                assert_eq!(a, b, "seq {seq} attempt {attempt}");
            }
        }
    }

    #[test]
    fn distinct_links_draw_distinct_streams() {
        let plan = FaultPlan::recoverable(7);
        let mut differs = false;
        for seq in 0..100u64 {
            if plan.verdict(0, 1, seq, 0, 64) != plan.verdict(1, 0, seq, 0, 64) {
                differs = true;
                break;
            }
        }
        assert!(differs, "links 0→1 and 1→0 should not share fates");
    }

    #[test]
    fn fault_cap_guarantees_clean_delivery() {
        // Even a storm plan delivers everything clean at the cap.
        for seed in 0..20 {
            let plan = FaultPlan::drop_storm(seed);
            for seq in 0..100u64 {
                assert_eq!(
                    plan.verdict(0, 1, seq, plan.fault_cap, 1 << 20),
                    Verdict::Deliver(Delivery::clean()),
                    "seed {seed} seq {seq}"
                );
            }
            let plan = FaultPlan::corruption_storm(seed);
            for seq in 0..100u64 {
                assert_eq!(
                    plan.verdict(2, 0, seq, plan.fault_cap + 1, 1 << 20),
                    Verdict::Deliver(Delivery::clean())
                );
            }
        }
    }

    #[test]
    fn blackhole_eats_everything_forever() {
        let plan = FaultPlan::blackhole(1, 0, 2);
        for seq in 0..50u64 {
            for attempt in [0u32, 1, 7, 100] {
                assert_eq!(plan.verdict(0, 2, seq, attempt, 128), Verdict::Drop);
            }
        }
        // Other links stay pristine.
        assert_eq!(
            plan.verdict(2, 0, 3, 0, 128),
            Verdict::Deliver(Delivery::clean())
        );
        assert!(!plan.is_recoverable(8));
        assert!(FaultPlan::recoverable(0).is_recoverable(8));
        assert!(!FaultPlan::crash(0, 1, 2).is_recoverable(8));
    }

    #[test]
    fn corruption_targets_a_real_bit() {
        let plan = FaultPlan::corruption_storm(3);
        let mut saw = false;
        for seq in 0..50u64 {
            if let Verdict::Deliver(d) = plan.verdict(0, 1, seq, 0, 256) {
                if let Some(bit) = d.corrupt_bit {
                    assert!(bit < 256);
                    saw = true;
                }
            }
        }
        assert!(saw, "a 60% corruption plan must corrupt something");
    }

    #[test]
    fn control_messages_are_never_corrupted() {
        let plan = FaultPlan::corruption_storm(3);
        for seq in 0..50u64 {
            if let Verdict::Deliver(d) = plan.verdict(0, 1, seq, 0, 0) {
                assert_eq!(d.corrupt_bit, None);
            }
        }
    }

    #[test]
    fn injector_drops_and_duplicates() {
        let plan = FaultPlan {
            seed: 9,
            default_link: LinkFaults {
                drop: 0.5,
                duplicate: 0.5,
                max_delay_ns: 0,
                ..LinkFaults::NONE
            },
            links: Vec::new(),
            nodes: Vec::new(),
            fault_cap: 10,
        };
        let mut link = Injector::new(0, 1);
        let mut out = Vec::new();
        let (mut dropped, mut dup) = (0, 0);
        for seq in 0..200u64 {
            match link.send(&plan, seq, 0, Blob(vec![seq as u8]), |m| out.push(m)) {
                Verdict::Drop => dropped += 1,
                Verdict::Deliver(d) => dup += usize::from(d.duplicate),
            }
        }
        assert_eq!(link.held(), 0);
        let delivered = out.len();
        assert!(dropped > 50, "~50% drop plan dropped only {dropped}");
        assert!(dup > 25, "duplication never fired");
        assert_eq!(delivered, 200 - dropped + dup);
    }

    #[test]
    fn injector_corrupts_payload_bits() {
        let plan = FaultPlan::corruption_storm(5);
        let mut link = Injector::new(0, 1);
        let mut out = Vec::new();
        let mut corrupted = 0;
        for seq in 0..100u64 {
            let v = link.send(&plan, seq, 0, Blob(vec![0u8; 16]), |m| out.push(m));
            if matches!(v, Verdict::Deliver(d) if d.corrupt_bit.is_some()) {
                corrupted += 1;
            }
        }
        assert_eq!(link.held(), 0);
        let mangled = out.iter().filter(|b| b.0 != vec![0u8; 16]).count();
        assert_eq!(mangled, corrupted);
        assert!(corrupted >= 30, "60% corruption plan corrupted {corrupted}");
    }

    #[test]
    fn delayed_messages_wait_for_release() {
        let plan = FaultPlan {
            seed: 1,
            default_link: LinkFaults {
                delay: 1.0,
                max_delay_ns: 1, // 1ns: due essentially immediately
                ..LinkFaults::NONE
            },
            links: Vec::new(),
            nodes: Vec::new(),
            fault_cap: 10,
        };
        let mut link = Injector::new(0, 1);
        let mut out = Vec::new();
        let v = link.send(&plan, 0, 0, Blob(vec![7]), |m| out.push(m));
        assert!(matches!(v, Verdict::Deliver(d) if d.delay_ns > 0 && !d.reorder));
        assert!(out.is_empty(), "delayed message delivered early");
        assert_eq!(link.held(), 1);
        std::thread::sleep(Duration::from_millis(1));
        link.release(Instant::now(), |m| out.push(m));
        assert_eq!((out, link.held()), (vec![Blob(vec![7])], 0));
    }

    #[test]
    fn reordered_message_is_overtaken_by_later_traffic() {
        let plan = FaultPlan {
            seed: 2,
            default_link: LinkFaults {
                reorder: 1.0,
                max_delay_ns: 0,
                ..LinkFaults::NONE
            },
            links: Vec::new(),
            nodes: Vec::new(),
            // Attempt 0 reorders; attempt-free later sends use seq+1
            // which also reorders — so use the cap to let the second
            // message through clean and overtake.
            fault_cap: 1,
        };
        let mut link = Injector::new(0, 1);
        let mut out = Vec::new();
        let v = link.send(&plan, 0, 0, Blob(vec![1]), |m| out.push(m));
        assert!(matches!(v, Verdict::Deliver(d) if d.reorder));
        // Second message: attempt at the cap ⇒ clean ⇒ overtakes.
        let v = link.send(&plan, 1, 1, Blob(vec![2]), |m| out.push(m));
        assert_eq!(v, Verdict::Deliver(Delivery::clean()));
        assert_eq!(
            out,
            vec![Blob(vec![2]), Blob(vec![1])],
            "later send must overtake"
        );
    }

    #[test]
    fn none_plan_is_identity() {
        let plan = FaultPlan::none(99);
        let mut link = Injector::new(0, 1);
        let mut out = Vec::new();
        for seq in 0..50u64 {
            let v = link.send(&plan, seq, 0, Blob(vec![seq as u8]), |m| out.push(m));
            assert_eq!(v, Verdict::Deliver(Delivery::clean()));
        }
        assert_eq!(out.len(), 50);
        assert_eq!(link.held(), 0);
    }

    #[test]
    fn with_link_and_with_node_replace() {
        let plan = FaultPlan::none(0)
            .with_link(0, 1, LinkFaults::NONE)
            .with_link(
                0,
                1,
                LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::NONE
                },
            )
            .with_node(
                2,
                NodeFaults {
                    stall: Some(Stall {
                        at_task: 0,
                        dur_ns: 5,
                    }),
                    crash: None,
                },
            );
        assert_eq!(plan.links.len(), 1);
        assert_eq!(plan.link_faults(0, 1).drop, 1.0);
        assert_eq!(plan.link_faults(1, 0).drop, 0.0);
        assert!(plan.node_faults(2).unwrap().stall.is_some());
        assert!(plan.node_faults(0).is_none());
    }

    #[test]
    fn membership_constructors_script_the_expected_schedules() {
        assert_eq!(MembershipPlan::none(), MembershipPlan::default());
        let crash = MembershipPlan::crash(2, 5);
        assert_eq!(crash.crashes, vec![(2, 5)]);
        assert!(crash.rejoins.is_empty());

        let ctr = MembershipPlan::crash_then_rejoin(1, 3, 7);
        assert_eq!(ctr.crashes, vec![(1, 3)]);
        assert_eq!(ctr.rejoins, vec![(1, 7)]);

        // Two full flap cycles: crash, back, crash again, back again.
        let flap = MembershipPlan::flap(0, 2, 3, 2);
        assert_eq!(flap.crashes, vec![(0, 2), (0, 8)]);
        assert_eq!(flap.rejoins, vec![(0, 5), (0, 11)]);
        // A zero period still makes forward progress.
        assert_eq!(MembershipPlan::flap(0, 1, 0, 1).rejoins, vec![(0, 2)]);
    }

    #[test]
    fn fault_plans_validate_node_bounds() {
        assert!(FaultPlan::stall(0, 2, Duration::from_millis(1))
            .validate(3)
            .is_ok());
        assert!(FaultPlan::stall(0, 5, Duration::from_millis(1))
            .validate(3)
            .is_err());
        assert!(FaultPlan::crash(0, 3, 1).validate(3).is_err());
        assert!(FaultPlan::blackhole(0, 0, 3).validate(3).is_err());
        assert!(FaultPlan::blackhole(0, 7, 1).validate(3).is_err());
        assert!(FaultPlan::recoverable(0).validate(2).is_ok());
    }

    #[test]
    fn membership_plans_validate_rank_and_iteration_bounds() {
        assert!(MembershipPlan::crash(1, 4).validate(4, 8).is_ok());
        assert!(MembershipPlan::crash(4, 4).validate(4, 8).is_err());
        assert!(MembershipPlan::crash(1, 8).validate(4, 8).is_err());
        assert!(MembershipPlan::crash_then_rejoin(1, 2, 9)
            .validate(4, 8)
            .is_err());
        // A 2-rank cluster cannot survive any permanent loss...
        assert!(MembershipPlan::crash(0, 1).validate(2, 8).is_err());
        // ...which is an elastic rule: the range alone allows it.
        assert!(MembershipPlan::crash(0, 1).check_range(2, 8).is_ok());
        assert!(MembershipPlan::crash(2, 1).check_range(2, 8).is_err());
        assert!(MembershipPlan::crash(0, 8).check_range(2, 8).is_err());
        // ...but a crash paired with a rejoin is allowed to flap.
        assert!(MembershipPlan::crash_then_rejoin(0, 1, 3)
            .validate(3, 8)
            .is_ok());
    }
}
