//! hipress-verify: a zero-dependency bounded explicit-state model
//! checker for the CaSync-RT wire/fault-tolerance protocol and the
//! elastic epoch transition.
//!
//! The runtime's protocol logic lives in pure transition functions
//! and side-effect-free link state machines
//! (`hipress_runtime::protocol`); this crate drives *those same
//! implementations* through every interleaving of a small-scope
//! configuration — 2–3 nodes, 1–2 chunks, window 1–2, under the
//! chaos fault alphabet (drop / duplicate / reorder / bit-flip /
//! crash) — and proves, for the explored scope:
//!
//! - **No deadlock**: every non-terminal state has an enabled
//!   transition.
//! - **No duplicate apply**: no sequence number lands in a
//!   receiver's apply ledger twice.
//! - **Corruption detected**: a bit-flipped data frame is always
//!   classified `Corrupt` before the protocol acts on it.
//! - **Retransmits bounded**: no data frame is transmitted more than
//!   `1 + retry_budget` times.
//! - **Structured endings**: every execution terminates with each
//!   node `Done`, crashed (by injection), or in a structured
//!   failure naming its peer.
//! - **Degrade rescales**: a completion carrying `Payload::Skipped`
//!   holes has a rescaled merge.
//!
//! The elastic epoch transition ([`elastic`]) is a second model.
//! Both implement [`Space`] and share one explorer ([`check`]): state
//! hashing, sleep-set partial-order reduction over model-supplied
//! footprints, and one pair of budgets. The mutation harnesses seed
//! six wire ([`mutate`]) and four elastic defect classes that the
//! matrices must refute with zero false positives.

pub mod check;
pub mod elastic;
pub mod model;
pub mod mutate;

pub use check::{explore, Failure, Limits, Outcome, Space, Stats};
pub use elastic::{
    check_elastic, elastic_matrix, ElasticConfig, ElasticMutation, ElasticViolation,
};
pub use model::{Config, Faults, Model, Pattern, Policy, Violation};
pub use mutate::Mutation;

/// One named small-scope configuration of a checker matrix (the wire
/// [`Config`] or the elastic [`ElasticConfig`]).
#[derive(Debug, Clone)]
pub struct Scenario<C = Config> {
    /// Stable name (shown in the `hipress verify` table).
    pub name: &'static str,
    /// The configuration to exhaust.
    pub cfg: C,
}

fn cfg(
    nodes: usize,
    chunks: u32,
    window: u32,
    retry_budget: u32,
    pattern: Pattern,
    faults: Faults,
    fault_budget: u32,
    policy: Policy,
    crash: Option<usize>,
) -> Config {
    Config {
        nodes,
        chunks,
        window,
        retry_budget,
        pattern,
        faults,
        fault_budget,
        policy,
        crash,
    }
}

const DROP: Faults = Faults {
    drop: true,
    duplicate: false,
    corrupt: false,
};
const DUP: Faults = Faults {
    drop: false,
    duplicate: true,
    corrupt: false,
};
const FLIP: Faults = Faults {
    drop: false,
    duplicate: false,
    corrupt: true,
};
const DROP_DUP: Faults = Faults {
    drop: true,
    duplicate: true,
    corrupt: false,
};
const DUP_FLIP: Faults = Faults {
    drop: false,
    duplicate: true,
    corrupt: true,
};
const DROP_FLIP: Faults = Faults {
    drop: true,
    duplicate: false,
    corrupt: true,
};

/// The small-scope matrix `hipress verify` exhausts: every fault
/// letter appears, windows 1 and 2 are both exercised, and the
/// crash scenarios cover both degrade policies and both traffic
/// patterns (all-to-all senders die as dead links; gather roots
/// must detect silence and degrade).
pub fn matrix() -> Vec<Scenario> {
    use Pattern::{AllToAll, Gather};
    use Policy::{Partial, Wait};
    vec![
        Scenario {
            name: "2n-clean-w1",
            cfg: cfg(2, 1, 1, 2, AllToAll, Faults::NONE, 0, Wait, None),
        },
        Scenario {
            name: "2n-clean-w2",
            cfg: cfg(2, 2, 2, 2, AllToAll, Faults::NONE, 0, Wait, None),
        },
        Scenario {
            name: "2n-drop",
            cfg: cfg(2, 1, 1, 3, AllToAll, DROP, 2, Wait, None),
        },
        Scenario {
            name: "2n-dup-w2",
            cfg: cfg(2, 2, 2, 2, AllToAll, DUP, 1, Wait, None),
        },
        Scenario {
            name: "2n-flip",
            cfg: cfg(2, 1, 1, 2, AllToAll, FLIP, 1, Wait, None),
        },
        Scenario {
            name: "2n-dup-flip",
            cfg: cfg(2, 1, 1, 2, AllToAll, DUP_FLIP, 2, Wait, None),
        },
        Scenario {
            name: "2n-drop-flip",
            cfg: cfg(2, 1, 1, 3, AllToAll, DROP_FLIP, 2, Wait, None),
        },
        Scenario {
            name: "2n-drop-dup-w2",
            cfg: cfg(2, 2, 2, 2, AllToAll, DROP_DUP, 2, Wait, None),
        },
        Scenario {
            name: "3n-drop",
            cfg: cfg(3, 1, 1, 2, AllToAll, DROP, 1, Wait, None),
        },
        Scenario {
            name: "3n-gather-w2",
            cfg: cfg(3, 2, 2, 2, Gather, Faults::NONE, 0, Wait, None),
        },
        Scenario {
            name: "3n-gather-drop-w2",
            cfg: cfg(3, 2, 2, 2, Gather, DROP, 1, Wait, None),
        },
        Scenario {
            name: "2n-crash-wait",
            cfg: cfg(2, 1, 1, 2, AllToAll, Faults::NONE, 0, Wait, Some(1)),
        },
        Scenario {
            name: "2n-crash-partial",
            cfg: cfg(2, 1, 1, 2, AllToAll, Faults::NONE, 0, Partial, Some(1)),
        },
        Scenario {
            name: "3n-gather-crash-partial",
            cfg: cfg(3, 1, 1, 2, Gather, Faults::NONE, 0, Partial, Some(2)),
        },
        Scenario {
            name: "3n-gather-crash-wait",
            cfg: cfg(3, 1, 1, 2, Gather, Faults::NONE, 0, Wait, Some(2)),
        },
        Scenario {
            name: "3n-gather-crash-w2",
            cfg: cfg(3, 2, 2, 2, Gather, Faults::NONE, 0, Partial, Some(1)),
        },
    ]
}

/// Checks one configuration: builds the model (optionally seeded
/// with a defect) and exhausts it.
pub fn check_config(cfg: &Config, mutation: Option<Mutation>, por: bool) -> Outcome<Violation> {
    let model = Model::new(cfg.clone(), mutation);
    explore(&model, por, Limits::default())
}
