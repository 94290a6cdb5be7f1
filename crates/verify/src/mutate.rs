//! The protocol mutation harness: each [`Mutation`] seeds one
//! realistic defect into the modelled protocol — the checker must
//! refute every one of them on every configuration where the defect
//! can physically manifest, and must stay silent everywhere else.
//! This mirrors the lint crate's mutation methodology: exact
//! expectations, 100% detection, zero false positives.

use crate::model::{Config, Faults, Policy};

/// One seeded protocol defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The receiver's dedup check is deleted: retransmissions and
    /// duplicated frames apply twice.
    SkipDedup,
    /// Dedup runs before checksum verification: a corrupted
    /// retransmission of a delivered seq passes as a duplicate.
    DedupBeforeVerify,
    /// The payload is applied before the checksum is verified at
    /// all: corrupt data lands in the merge.
    ApplyBeforeVerify,
    /// The sender ignores the retry budget and retransmits forever.
    RetryWithoutBound,
    /// The heartbeat/straggler silence detection is dropped: a node
    /// waiting on a crashed peer waits forever.
    DropHeartbeat,
    /// A Partial-degrade skip records holes but forgets to rescale
    /// the merge.
    ForgetRescale,
}

impl Mutation {
    /// Every protocol defect class, in a stable order.
    pub const ALL: [Mutation; 6] = [
        Mutation::SkipDedup,
        Mutation::DedupBeforeVerify,
        Mutation::ApplyBeforeVerify,
        Mutation::RetryWithoutBound,
        Mutation::DropHeartbeat,
        Mutation::ForgetRescale,
    ];

    /// Stable CLI name (`hipress verify --mutant <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::SkipDedup => "skip-dedup",
            Mutation::DedupBeforeVerify => "dedup-before-verify",
            Mutation::ApplyBeforeVerify => "apply-before-verify",
            Mutation::RetryWithoutBound => "retry-without-bound",
            Mutation::DropHeartbeat => "drop-heartbeat",
            Mutation::ForgetRescale => "forget-rescale",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Mutation> {
        Mutation::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Whether this defect can manifest at all under `cfg` — the
    /// physics of the scenario, not the checker's cleverness. On
    /// eligible configurations detection must be 100%; on ineligible
    /// ones the checker must report nothing (the defect is present
    /// but latent, and flagging it would be a false positive).
    pub fn eligible(&self, cfg: &Config) -> bool {
        let Faults {
            drop,
            duplicate,
            corrupt,
        } = cfg.faults;
        // Someone expects data from the crash victim. There is then
        // always an interleaving where the victim acks everything it
        // received *before* crashing, leaving the waiter with no
        // dead-link escape — only silence detection can save it.
        let victim_owes_data = cfg
            .crash
            .is_some_and(|v| (0..cfg.nodes).any(|i| i != v && cfg.sends(v, i) > 0));
        match self {
            // A second delivery of one seq needs a duplicated
            // frame or a retransmission after a lost ack.
            Mutation::SkipDedup => duplicate || drop,
            // Needs a *corrupted* copy of an already-delivered seq:
            // one fault to re-materialise the seq (dup, or drop its
            // ack), one to corrupt.
            Mutation::DedupBeforeVerify => corrupt && (duplicate || drop) && cfg.fault_budget >= 2,
            // Any corrupt arrival manifests it.
            Mutation::ApplyBeforeVerify => corrupt,
            // The budget only matters on a link whose receiver can
            // die mid-protocol: the crash victim itself, or — under
            // Wait degrade — a waiter on the victim, which turns
            // into a structured failure that stops acking.
            Mutation::RetryWithoutBound => cfg.crash.is_some_and(|v| {
                let can_die = |r: usize| {
                    r == v || (cfg.policy == Policy::Wait && r != v && cfg.sends(v, r) > 0)
                };
                (0..cfg.nodes).any(|s| {
                    s != v && (0..cfg.nodes).any(|r| r != s && cfg.sends(s, r) > 0 && can_die(r))
                })
            }),
            Mutation::DropHeartbeat => victim_owes_data,
            // Holes only appear when a waiter skips the victim under
            // Partial degrade.
            Mutation::ForgetRescale => victim_owes_data && cfg.policy == Policy::Partial,
        }
    }
}
