//! The fault-tolerant protocol's pure rules for CaSync-RT.
//!
//! The node loop relies on its channel fabric the way the paper
//! trusts NCCL: messages arrive, once, intact. When a fault plan in
//! [`crate::RunOptions`] revokes that trust, [`crate::ft::FtLink`]
//! carries every inter-node message as a data [`Frame`] of the
//! reliability machine the socket fabric runs ([`hipress_fabric::rel`],
//! re-exported here with the frame): sequence-numbered and
//! checksummed, verified and deduplicated by [`RelRx`], acknowledged
//! or nacked, and retransmitted with exponential backoff under a
//! bounded retry budget by [`RelTx`].
//!
//! What lives here is the rest of the protocol's decisions, each a
//! side-effect-free function: the straggler detector's EWMA and
//! threshold, the degraded merge's rescale factors, and the elastic
//! epoch rules.

pub use hipress_fabric::frame::{fnv, Frame, FrameKind, FNV_OFFSET};
pub use hipress_fabric::rel::{classify, LinkDead, LinkTuning, RelRx, RelTx, RxVerdict};

// ---------------------------------------------------------------------------
// Pure transition functions.
//
// Every protocol *decision* lives in a side-effect-free function of
// its inputs: the link rules (`rto`, `retry_decision`, `classify`) in
// `hipress_fabric::rel` beside the state machines that delegate to
// them, the straggler / degrade / membership rules below. `FtLink`
// and the engine's degraded merge call these directly, and
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

    /// Pin the pure FT decision rules the link and engine delegate
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
}
