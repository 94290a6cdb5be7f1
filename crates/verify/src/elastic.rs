//! Bounded model checking of the elastic-membership layer: the
//! drain → evict → re-plan → resume epoch transition, plus mid-run
//! joins.
//!
//! The model drives the *actual* transition rules the runtime uses —
//! [`epoch_accepts`], [`drain_boundary`], [`member_slot`] from
//! `hipress_runtime::protocol` — through every interleaving of a
//! small-scope elastic run: workers advance with bounded pipeline
//! skew, a scripted victim crashes, survivors notice at any later
//! point (so every drain-time completion vector the skew allows is
//! reached), the coordinator drains and bumps, zombie frames from
//! the dead epoch chase the survivors, and a restarted worker asks
//! to join claiming any epoch it likes.
//!
//! Properties, checked on every reachable state:
//!
//! - **No deadlock**: every non-terminal state has an enabled
//!   transition — in particular, re-planned chunk ownership never
//!   references an evicted rank, so the next segment can always run.
//! - **No missed iteration**: the drain boundary never commits an
//!   iteration some survivor has not executed.
//! - **No double apply**: a global iteration is committed by exactly
//!   one epoch segment.
//! - **Stale-epoch rejection**: a data frame stamped with a dead
//!   epoch is never applied.
//! - **Join admission**: a joiner claiming an epoch the run has not
//!   reached is never admitted.
//!
//! The model is a [`Space`] on the shared explorer ([`explore`]):
//! the same visited table, budgets and sleep-set reduction as the
//! wire model.
//!
//! The mutation harness seeds one defect per rule — skip the drain
//! minimum, accept stale frames, reuse the dead rank's chunk
//! ownership, admit future-epoch joins — and the same matrix must
//! refute each with a concrete counterexample trace.

use crate::check::{explore, hash64, Limits, Outcome, Space};
use crate::Scenario;
use hipress_runtime::protocol::{drain_boundary, epoch_accepts, member_slot};
use std::fmt;
use std::ops::Range;

/// One small-scope elastic configuration.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Worker count before any crash (2–4).
    pub nodes: usize,
    /// Total global iterations (2–4).
    pub iters: u32,
    /// Pipeline skew bound: how far one worker may run ahead of the
    /// slowest.
    pub window: u32,
    /// Scripted whole-rank loss: `(victim, global_iter)`.
    pub crash: Option<(usize, u32)>,
    /// The victim restarts and asks to join at the bump boundary.
    pub rejoin: bool,
}

/// One seeded elastic-protocol defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticMutation {
    /// The drain uses the *maximum* survivor completion instead of
    /// the minimum: slower survivors get iterations committed that
    /// they never executed.
    SkipDrain,
    /// The epoch gate on data frames is deleted: a zombie frame from
    /// the dead epoch is applied after the bump.
    AcceptStaleEpoch,
    /// Chunk ownership is not recomputed at the bump: the evicted
    /// rank still owns its chunks, so the next segment cannot make
    /// progress.
    ReuseDeadOwner,
    /// The coordinator admits a joiner claiming an epoch the run has
    /// not reached.
    AdmitFutureJoin,
}

impl ElasticMutation {
    /// Every elastic defect class, in a stable order.
    pub const ALL: [ElasticMutation; 4] = [
        ElasticMutation::SkipDrain,
        ElasticMutation::AcceptStaleEpoch,
        ElasticMutation::ReuseDeadOwner,
        ElasticMutation::AdmitFutureJoin,
    ];

    /// Stable CLI name (`hipress verify --mutant <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            ElasticMutation::SkipDrain => "skip-drain",
            ElasticMutation::AcceptStaleEpoch => "accept-stale-epoch",
            ElasticMutation::ReuseDeadOwner => "reuse-dead-owner",
            ElasticMutation::AdmitFutureJoin => "admit-future-join",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<ElasticMutation> {
        ElasticMutation::ALL
            .iter()
            .copied()
            .find(|m| m.name() == name)
    }

    /// Whether this defect can manifest under `cfg` at all. Every
    /// elastic defect needs an epoch bump, hence a crash; a future
    /// join additionally needs a joiner. On eligible configurations
    /// detection must be 100%; elsewhere the checker must stay
    /// silent.
    pub fn eligible(&self, cfg: &ElasticConfig) -> bool {
        match self {
            ElasticMutation::AdmitFutureJoin => cfg.crash.is_some() && cfg.rejoin,
            // SkipDrain needs a drain whose min and max can differ:
            // at least two survivors and room for skew.
            ElasticMutation::SkipDrain => cfg.crash.is_some() && cfg.nodes >= 3 && cfg.window >= 1,
            _ => cfg.crash.is_some(),
        }
    }
}

/// A property violation found in the elastic model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElasticViolation {
    /// A non-terminal state with no enabled transition.
    Deadlock {
        /// The membership epoch the run wedged in.
        epoch: u8,
    },
    /// The drain committed an iteration a survivor never executed.
    MissedIteration {
        /// The survivor that was skipped past.
        node: usize,
        /// The global iteration committed on its behalf.
        iter: u32,
    },
    /// A global iteration was committed by two epoch segments.
    DoubleApply {
        /// The twice-committed global iteration.
        iter: u32,
    },
    /// A frame stamped with a dead epoch was applied after the bump.
    StaleApply {
        /// The survivor that applied it.
        node: usize,
        /// The dead epoch the frame was stamped with.
        frame_epoch: u8,
        /// The membership epoch at the time of the apply.
        epoch: u8,
    },
    /// A joiner claiming an epoch the run has not reached was let in.
    FutureJoinAdmitted {
        /// The epoch the joiner claimed.
        claimed: u8,
        /// The coordinator's actual epoch.
        epoch: u8,
    },
}

impl fmt::Display for ElasticViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticViolation::Deadlock { epoch } => {
                write!(f, "deadlock at epoch {epoch}: no transition enabled")
            }
            ElasticViolation::MissedIteration { node, iter } => write!(
                f,
                "iteration {iter} committed but node {node} never executed it"
            ),
            ElasticViolation::DoubleApply { iter } => {
                write!(f, "iteration {iter} committed by two epoch segments")
            }
            ElasticViolation::StaleApply {
                node,
                frame_epoch,
                epoch,
            } => write!(
                f,
                "node {node} applied a frame from dead epoch {frame_epoch} at epoch {epoch}"
            ),
            ElasticViolation::FutureJoinAdmitted { claimed, epoch } => write!(
                f,
                "join claiming future epoch {claimed} admitted at epoch {epoch}"
            ),
        }
    }
}

/// One worker's condition within the current epoch segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// Participating: `completed` segment-local iterations retired.
    Live { completed: u32 },
    /// Survivor that noticed the death and froze at its count.
    Halted { completed: u32 },
    /// Crashed (or not yet joined).
    Dead,
}

/// One explicit model state. Everything is small-scope, so the whole
/// struct hashes cheaply into its fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct St {
    epoch: u8,
    /// Global iteration number of the current segment's start.
    base: u32,
    nodes: Vec<Node>,
    /// Whether the scripted crash has fired yet.
    crashed: bool,
    /// A death happened in the current epoch and has not been drained
    /// yet — survivors may notice and halt only while this holds.
    dead_pending: bool,
    /// Which epoch segment committed each global iteration
    /// (`None` = not yet committed). The double-apply ledger.
    committed: Vec<Option<u8>>,
    /// One zombie data frame per survivor may chase it across the
    /// bump, stamped with the epoch it was sent in.
    zombies: Vec<Option<u8>>,
    /// Per-chunk owner rank for the current segment (one chunk per
    /// original rank keeps the scope small but the rule visible).
    owners: Vec<usize>,
    done: bool,
}

/// The sorted live-member rank list (the runtime's `members` vector).
fn live_ranks(nodes: &[Node]) -> Vec<u32> {
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !matches!(n, Node::Dead))
        .map(|(r, _)| r as u32)
        .collect()
}

/// Recomputes chunk ownership for a member set exactly as the
/// runtime's dispatch does: chunk `c` goes to slot `c mod n_live`,
/// and [`member_slot`] inverts slot → rank over the sorted members.
fn replan_owners(members: &[u32], chunks: usize) -> Vec<usize> {
    (0..chunks)
        .map(|c| {
            let slot = (c % members.len()) as u32;
            let rank = members
                .iter()
                .copied()
                .find(|&r| member_slot(members, r) == Some(slot))
                .expect("every slot has a member");
            rank as usize
        })
        .collect()
}

/// One elastic transition, in the order [`ElasticModel::enabled`]
/// lists them. Each carries what its trace line shows.
#[derive(Debug, Clone, Copy, Hash)]
enum ElasticAction {
    /// Worker `rank` retires segment-local iteration `to`.
    Advance { rank: usize, to: u32 },
    /// The scripted victim dies at global iteration `iter`.
    Crash { rank: usize, iter: u32 },
    /// A survivor notices the death and freezes at `completed`.
    Halt { rank: usize, completed: u32 },
    /// A dead-epoch frame reaches survivor `rank`, which applies or
    /// rejects it.
    Zombie {
        rank: usize,
        frame_epoch: u8,
        applied: bool,
    },
    /// Every survivor halted: commit up to global iteration
    /// `boundary`, evict, bump, re-plan — with a rejoin, the restarted
    /// victim dials in during the same bump.
    Drain { boundary: u32, join: Option<Join> },
    /// Every member retired the whole segment.
    Finish { epoch: u8 },
}

/// A restarted victim asking to join, claiming some epoch.
#[derive(Debug, Clone, Copy, Hash)]
struct Join {
    rank: usize,
    claimed: u8,
    admitted: bool,
}

impl fmt::Display for ElasticAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ElasticAction::*;
        match *self {
            Advance { rank, to } => write!(f, "advance(n{rank} -> {to})"),
            Crash { rank, iter } => write!(f, "crash(n{rank} at iter {iter})"),
            Halt { rank, completed } => write!(f, "halt(n{rank} at {completed})"),
            Zombie {
                rank,
                frame_epoch,
                applied,
            } => {
                let verdict = if applied { "applied" } else { "rejected" };
                write!(
                    f,
                    "deliver(zombie epoch {frame_epoch} -> n{rank}, {verdict})"
                )
            }
            Drain { boundary, join } => {
                write!(f, "drain(boundary {boundary})")?;
                join.map_or(Ok(()), |j| write!(f, " + {j}"))
            }
            Finish { epoch } => write!(f, "finish(epoch {epoch})"),
        }
    }
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.admitted { "admitted" } else { "refused" };
        let (rank, claimed) = (self.rank, self.claimed);
        write!(f, "join(n{rank} claims epoch {claimed}, {verdict})")
    }
}

/// The elastic epoch-transition model: one configuration, an optional
/// seeded defect.
struct ElasticModel<'a> {
    cfg: &'a ElasticConfig,
    mutation: Option<ElasticMutation>,
}

/// Marks global iterations `iters` committed by `epoch`, refusing any
/// an earlier segment already committed.
fn commit(st: &mut St, iters: Range<u32>, epoch: u8) -> Result<(), ElasticViolation> {
    for i in iters {
        let slot = &mut st.committed[i as usize];
        if slot.is_some() {
            return Err(ElasticViolation::DoubleApply { iter: i });
        }
        *slot = Some(epoch);
    }
    Ok(())
}

impl Space for ElasticModel<'_> {
    type State = St;
    type Action = ElasticAction;
    type Violation = ElasticViolation;

    fn initial(&self) -> St {
        let n = self.cfg.nodes;
        St {
            epoch: 0,
            base: 0,
            nodes: vec![Node::Live { completed: 0 }; n],
            crashed: false,
            dead_pending: false,
            committed: vec![None; self.cfg.iters as usize],
            zombies: vec![None; n],
            owners: (0..n).collect(),
            done: false,
        }
    }

    fn enabled(&self, st: &St) -> Vec<ElasticAction> {
        let mut out = Vec::new();
        if st.done {
            return out;
        }
        let live = live_ranks(&st.nodes);
        // Elastic segments always run to the configured end;
        // boundaries are created by drains.
        let seg = self.cfg.iters - st.base;

        // ---- advance(r): one worker retires one iteration ---------
        let min_completed = st
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Live { completed } | Node::Halted { completed } => Some(*completed),
                Node::Dead => None,
            })
            .min()
            .unwrap_or(0);
        // An iteration only retires when every chunk's owner is alive
        // to serve its share — the ownership re-plan rule.
        let owners_alive = st
            .owners
            .iter()
            .all(|&o| !matches!(st.nodes[o], Node::Dead));
        for &r in &live {
            let r = r as usize;
            let Node::Live { completed } = st.nodes[r] else {
                continue;
            };
            if completed >= seg || completed >= min_completed + self.cfg.window || !owners_alive {
                continue;
            }
            // The scripted victim cannot run past its crash point.
            if let Some((victim, at)) = self.cfg.crash {
                if r == victim && !st.crashed && st.base + completed >= at {
                    continue;
                }
            }
            out.push(ElasticAction::Advance {
                rank: r,
                to: completed + 1,
            });
        }

        // ---- crash: the scripted victim dies ----------------------
        if let Some((victim, at)) = self.cfg.crash {
            if let Node::Live { completed } = st.nodes[victim] {
                if !st.crashed && st.base + completed >= at {
                    out.push(ElasticAction::Crash {
                        rank: victim,
                        iter: st.base + completed,
                    });
                }
            }
        }

        // ---- halt(r): a survivor notices the death and halts ------
        if st.dead_pending {
            for &r in &live {
                if let Node::Live { completed } = st.nodes[r as usize] {
                    out.push(ElasticAction::Halt {
                        rank: r as usize,
                        completed,
                    });
                }
            }
        }

        // ---- zombie(r): a dead-epoch frame reaches a survivor -----
        for (r, z) in st.zombies.iter().enumerate() {
            let Some(frame_epoch) = *z else { continue };
            if matches!(st.nodes[r], Node::Dead) {
                continue;
            }
            let applied = self.mutation == Some(ElasticMutation::AcceptStaleEpoch)
                || epoch_accepts(u64::from(st.epoch), u64::from(frame_epoch));
            out.push(ElasticAction::Zombie {
                rank: r,
                frame_epoch,
                applied,
            });
        }

        // ---- drain: every survivor halted → evict, bump, resume ---
        let survivors_all_halted = st.dead_pending
            && st
                .nodes
                .iter()
                .all(|n| matches!(n, Node::Halted { .. } | Node::Dead));
        if survivors_all_halted {
            let completions: Vec<u32> = st
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Halted { completed } => Some(*completed),
                    _ => None,
                })
                .collect();
            let local = if self.mutation == Some(ElasticMutation::SkipDrain) {
                completions.iter().copied().max().unwrap_or(0)
            } else {
                drain_boundary(&completions)
            };
            let boundary = st.base + local;
            match self.cfg.crash {
                // A restarted victim dials in claiming some epoch;
                // every claim the wire allows is explored.
                Some((victim, _)) if self.cfg.rejoin => {
                    let bumped = st.epoch + 1;
                    for claimed in [0, bumped, bumped + 1] {
                        let admitted = self.mutation == Some(ElasticMutation::AdmitFutureJoin)
                            || claimed <= bumped;
                        out.push(ElasticAction::Drain {
                            boundary,
                            join: Some(Join {
                                rank: victim,
                                claimed,
                                admitted,
                            }),
                        });
                    }
                }
                _ => out.push(ElasticAction::Drain {
                    boundary,
                    join: None,
                }),
            }
        }

        // ---- finish: every member retired the whole segment -------
        let all_finished = !live.is_empty()
            && !st.dead_pending
            && st.nodes.iter().all(|n| {
                matches!(n, Node::Live { completed } if *completed >= seg)
                    || matches!(n, Node::Dead)
            });
        if all_finished {
            out.push(ElasticAction::Finish { epoch: st.epoch });
        }
        out
    }

    fn step(&self, st: &St, action: &ElasticAction) -> Result<St, ElasticViolation> {
        let mut next = st.clone();
        match *action {
            ElasticAction::Advance { rank, to } => next.nodes[rank] = Node::Live { completed: to },
            ElasticAction::Crash { rank, .. } => {
                next.nodes[rank] = Node::Dead;
                next.crashed = true;
                next.dead_pending = true;
                // Its last-breath frames are now zombies of this
                // epoch, one per survivor.
                for (r, z) in next.zombies.iter_mut().enumerate() {
                    if r != rank && !matches!(st.nodes[r], Node::Dead) {
                        *z = Some(st.epoch);
                    }
                }
            }
            ElasticAction::Halt { rank, completed } => {
                next.nodes[rank] = Node::Halted { completed }
            }
            ElasticAction::Zombie {
                rank,
                frame_epoch,
                applied,
            } => {
                if applied && frame_epoch != st.epoch {
                    return Err(ElasticViolation::StaleApply {
                        node: rank,
                        frame_epoch,
                        epoch: st.epoch,
                    });
                }
                next.zombies[rank] = None;
            }
            ElasticAction::Drain { boundary, join } => {
                // Each survivor must actually have executed
                // everything committed on its behalf.
                let local = boundary - st.base;
                for (r, n) in st.nodes.iter().enumerate() {
                    if let Node::Halted { completed } = *n {
                        if completed < local {
                            return Err(ElasticViolation::MissedIteration {
                                node: r,
                                iter: st.base + completed,
                            });
                        }
                    }
                }
                commit(&mut next, st.base..boundary, st.epoch)?;
                // Evict, bump, re-plan ownership over the members.
                next.epoch += 1;
                next.base = boundary;
                next.dead_pending = false;
                for n in next.nodes.iter_mut() {
                    if let Node::Halted { .. } = n {
                        *n = Node::Live { completed: 0 };
                    }
                }
                if let Some(j) = join.filter(|j| j.admitted) {
                    if j.claimed > next.epoch {
                        return Err(ElasticViolation::FutureJoinAdmitted {
                            claimed: j.claimed,
                            epoch: next.epoch,
                        });
                    }
                    next.nodes[j.rank] = Node::Live { completed: 0 };
                }
                if self.mutation != Some(ElasticMutation::ReuseDeadOwner) {
                    next.owners = replan_owners(&live_ranks(&next.nodes), next.owners.len());
                }
            }
            ElasticAction::Finish { epoch } => {
                commit(&mut next, st.base..self.cfg.iters, epoch)?;
                next.done = true;
            }
        }
        Ok(next)
    }

    /// Deadlock property: only a completed run may enable nothing.
    fn terminal_violation(&self, st: &St) -> Option<ElasticViolation> {
        (!st.done).then_some(ElasticViolation::Deadlock { epoch: st.epoch })
    }

    fn fingerprint(&self, st: &St) -> u64 {
        hash64(st)
    }

    /// Resources: worker `r`'s condition is bit `r`, its zombie slot
    /// bit `8 + r`. Crash, drain and finish depend on everything. An
    /// advance reads every worker (the skew bound) and writes its own;
    /// a halt writes only its worker; a zombie delivery touches only
    /// its slot — so zombies commute with advances and halts, and
    /// halts with each other.
    fn footprint(&self, _: &St, action: &ElasticAction) -> u64 {
        match *action {
            ElasticAction::Advance { .. } => (1 << self.cfg.nodes) - 1,
            ElasticAction::Halt { rank, .. } => 1 << rank,
            ElasticAction::Zombie { rank, .. } => 1 << (8 + rank),
            ElasticAction::Crash { .. }
            | ElasticAction::Drain { .. }
            | ElasticAction::Finish { .. } => u64::MAX,
        }
    }
}

/// Exhausts one elastic scenario, optionally with a seeded defect;
/// `por` toggles the sleep-set reduction.
pub fn check_elastic(
    cfg: &ElasticConfig,
    mutation: Option<ElasticMutation>,
    por: bool,
) -> Outcome<ElasticViolation> {
    explore(&ElasticModel { cfg, mutation }, por, Limits::default())
}

/// The elastic small-scope matrix `hipress verify` exhausts: a clean
/// run (one segment, no bump), crashes at the first, middle, and
/// last iteration, a crash with a rejoin, and a wider cluster where
/// drain-time skew is largest.
pub fn elastic_matrix() -> Vec<Scenario<ElasticConfig>> {
    vec![
        Scenario {
            name: "el-2n-clean",
            cfg: ElasticConfig {
                nodes: 2,
                iters: 3,
                window: 2,
                crash: None,
                rejoin: false,
            },
        },
        Scenario {
            name: "el-3n-crash-early",
            cfg: ElasticConfig {
                nodes: 3,
                iters: 3,
                window: 1,
                crash: Some((1, 0)),
                rejoin: false,
            },
        },
        Scenario {
            name: "el-3n-crash-mid-w2",
            cfg: ElasticConfig {
                nodes: 3,
                iters: 3,
                window: 2,
                crash: Some((2, 1)),
                rejoin: false,
            },
        },
        Scenario {
            name: "el-3n-crash-last",
            cfg: ElasticConfig {
                nodes: 3,
                iters: 3,
                window: 1,
                crash: Some((0, 2)),
                rejoin: false,
            },
        },
        Scenario {
            name: "el-3n-crash-rejoin",
            cfg: ElasticConfig {
                nodes: 3,
                iters: 3,
                window: 1,
                crash: Some((1, 1)),
                rejoin: true,
            },
        },
        Scenario {
            name: "el-4n-crash-w2",
            cfg: ElasticConfig {
                nodes: 4,
                iters: 3,
                window: 2,
                crash: Some((3, 1)),
                rejoin: false,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Failure;

    #[test]
    fn matrix_is_exhausted_clean() {
        for s in elastic_matrix() {
            let out = check_elastic(&s.cfg, None, true);
            assert!(
                out.clean(),
                "{}: {:?}",
                s.name,
                out.violation.map(|(v, _)| v)
            );
            assert!(out.stats.terminals > 0, "{}: no run ever completed", s.name);
        }
    }

    #[test]
    fn every_mutation_is_refuted_where_eligible() {
        for m in ElasticMutation::ALL {
            let mut caught = 0usize;
            for s in elastic_matrix() {
                let out = check_elastic(&s.cfg, Some(m), true);
                if m.eligible(&s.cfg) {
                    assert!(
                        !out.clean(),
                        "{}: seeded {} went undetected",
                        s.name,
                        m.name()
                    );
                    let (_, trace) = out.violation.expect("violation");
                    assert!(
                        trace.len() > 1,
                        "{}: counterexample for {} has no steps",
                        s.name,
                        m.name()
                    );
                    caught += 1;
                } else {
                    assert!(
                        out.clean(),
                        "{}: {} flagged where it cannot manifest (false positive)",
                        s.name,
                        m.name()
                    );
                }
            }
            assert!(caught > 0, "{} never eligible anywhere", m.name());
        }
    }

    #[test]
    fn skip_drain_names_the_missed_iteration() {
        let cfg = ElasticConfig {
            nodes: 3,
            iters: 3,
            window: 2,
            crash: Some((2, 1)),
            rejoin: false,
        };
        let out = check_elastic(&cfg, Some(ElasticMutation::SkipDrain), true);
        let (v, _) = out.violation.expect("skip-drain must be refuted");
        assert!(
            matches!(
                v,
                Failure::Property(ElasticViolation::MissedIteration { .. })
            ),
            "got {v}"
        );
    }

    #[test]
    fn stale_epoch_mutant_applies_a_dead_frame() {
        let cfg = ElasticConfig {
            nodes: 3,
            iters: 3,
            window: 1,
            crash: Some((1, 1)),
            rejoin: false,
        };
        let out = check_elastic(&cfg, Some(ElasticMutation::AcceptStaleEpoch), true);
        let (v, _) = out.violation.expect("accept-stale-epoch must be refuted");
        assert!(
            matches!(v, Failure::Property(ElasticViolation::StaleApply { .. })),
            "got {v}"
        );
    }

    #[test]
    fn dead_owner_wedges_the_next_segment() {
        let cfg = ElasticConfig {
            nodes: 3,
            iters: 3,
            window: 1,
            crash: Some((1, 1)),
            rejoin: false,
        };
        let out = check_elastic(&cfg, Some(ElasticMutation::ReuseDeadOwner), true);
        let (v, _) = out.violation.expect("reuse-dead-owner must be refuted");
        assert!(
            matches!(v, Failure::Property(ElasticViolation::Deadlock { .. })),
            "got {v}"
        );
    }

    #[test]
    fn a_growing_scenario_ends_in_the_budget_violation() {
        let s = elastic_matrix().pop().expect("el-4n-crash-w2");
        let model = ElasticModel {
            cfg: &s.cfg,
            mutation: None,
        };
        let states = Limits {
            max_states: 10,
            ..Limits::default()
        };
        let out = explore(&model, true, states);
        assert!(
            matches!(
                out.violation,
                Some((Failure::StateSpaceExceeded { states: 11 }, _))
            ),
            "{:?}",
            out.violation
        );
        let depth = Limits {
            max_depth: 3,
            ..Limits::default()
        };
        let out = explore(&model, true, depth);
        let Some((Failure::DepthExceeded { depth: 4 }, trace)) = out.violation else {
            panic!("{:?}", out.violation);
        };
        assert_eq!(trace.len(), 5, "four steps, then the verdict");
    }
}
