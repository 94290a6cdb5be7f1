//! The bounded explicit-state explorer: depth-first search over any
//! [`Space`] with hash-compacted visited tracking and sleep-set
//! partial-order reduction. The explorer names no model; the wire
//! model ([`Model`](crate::model::Model)) and the elastic model
//! ([`elastic`](crate::elastic)) are two implementations of the same
//! trait, and each supplies its own state fingerprint and action
//! footprints.
//!
//! # Reduction
//!
//! Two transitions are *independent* when their resource masks
//! ([`Space::footprint`]) are disjoint. The model picks resources so
//! that independent actions commute and never enable or disable one
//! another; of the two orders `a·b` and `b·a` only one then needs
//! exploring. Sleep sets implement exactly that: after exploring `a`
//! from a state, `a` enters the sleep set of its siblings' subtrees
//! and stays there until some dependent action wakes it. Sleep sets
//! prune *transitions*, never states, so every reachable state (and
//! every property violation) is still visited — the savings show up
//! in the `pruned` statistic, which `hipress verify` prints per
//! scenario.
//!
//! # Visited states
//!
//! States are fingerprinted to 64 bits ([`Space::fingerprint`]) —
//! classic hash compaction. A state is re-explored only when it is
//! reached with a sleep set that is not a superset of one it was
//! already explored under (a smaller sleep set means more outgoing
//! transitions would be considered).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A small-scope model the explorer can exhaust: states, the actions
/// enabled in each, their effects, and the properties they must keep.
pub trait Space {
    /// One global model state.
    type State;
    /// One transition; its `Display` text is the counterexample trace
    /// line, its hash its identity for the reduction.
    type Action: fmt::Display + Hash;
    /// A property violation; its `Display` text is the verdict.
    type Violation: fmt::Display;

    /// The initial state.
    fn initial(&self) -> Self::State;
    /// Every transition enabled in `state`, in exploration order.
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;
    /// Executes `action` on a copy of `state`. `Err` is a property
    /// violation observed while executing it.
    fn step(
        &self,
        state: &Self::State,
        action: &Self::Action,
    ) -> Result<Self::State, Self::Violation>;
    /// Checks the terminal-state properties once no transition is
    /// enabled.
    fn terminal_violation(&self, state: &Self::State) -> Option<Self::Violation>;
    /// A 64-bit fingerprint of `state` for the visited table.
    fn fingerprint(&self, state: &Self::State) -> u64;
    /// The resources `action` touches in `state`, as a bitmask.
    fn footprint(&self, state: &Self::State, action: &Self::Action) -> u64;
}

/// A 64-bit hash of `value`: the same in every run of one build, so
/// exploration is deterministic.
pub(crate) fn hash64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// An enabled action's sleep-set entry: its identity (the hash of the
/// action, which names it across the states it stays enabled in) and
/// its resource mask.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    key: u64,
    mask: u64,
}

impl Footprint {
    /// Disjoint resources commute and cannot enable or disable each
    /// other — only one interleaving order needs exploring.
    fn independent(&self, other: &Footprint) -> bool {
        self.mask & other.mask == 0
    }
}

/// Exploration budgets, the same for every model: tripping either is
/// reported as a [`Failure`] (the scenario must be tuned, never
/// silently truncated).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max distinct state fingerprints.
    pub max_states: usize,
    /// Max DFS depth (trace length).
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_depth: 100_000,
        }
    }
}

/// Exploration statistics — the evidence that the scope was actually
/// exhausted and the reduction actually reduced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Transitions pruned by the sleep-set reduction.
    pub pruned: usize,
    /// Arrivals at an already-explored state.
    pub revisits: usize,
    /// Deepest trace explored.
    pub max_depth: usize,
    /// Terminal states reached.
    pub terminals: usize,
}

/// Why a search ended before exhausting its scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure<V> {
    /// The model broke one of its properties.
    Property(V),
    /// The scenario outgrew the state budget (a checker
    /// configuration error, not a protocol bug).
    StateSpaceExceeded {
        /// States visited when the limit tripped.
        states: usize,
    },
    /// The scenario outgrew the depth budget.
    DepthExceeded {
        /// The depth reached.
        depth: usize,
    },
}

impl<V: fmt::Display> fmt::Display for Failure<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Property(v) => v.fmt(f),
            Failure::StateSpaceExceeded { states } => {
                write!(f, "state budget exceeded after {states} states")
            }
            Failure::DepthExceeded { depth } => write!(f, "depth budget exceeded at {depth}"),
        }
    }
}

/// The result of exhausting (or refuting) one scenario.
#[derive(Debug, Clone)]
pub struct Outcome<V> {
    /// Exploration statistics.
    pub stats: Stats,
    /// The first violation, with the action trace that reaches it.
    /// `None` means the scope was exhausted violation free.
    pub violation: Option<(Failure<V>, Vec<String>)>,
}

impl<V> Outcome<V> {
    /// True when the scope was exhausted with no violation.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

struct Explorer<'m, M: Space> {
    model: &'m M,
    por: bool,
    limits: Limits,
    /// fingerprint → the sleep-set keys the state has been explored
    /// under (intersected across visits: the stored set shrinks as
    /// more of the state's transitions get explored).
    visited: HashMap<u64, Vec<u64>>,
    stats: Stats,
    violation: Option<(Failure<M::Violation>, Vec<String>)>,
    trail: Vec<String>,
}

impl<M: Space> Explorer<'_, M> {
    fn fail(&mut self, v: Failure<M::Violation>) {
        let mut trace = self.trail.clone();
        trace.push(format!("=> {v}"));
        self.violation = Some((v, trace));
    }

    /// Returns false to abort the whole search (violation recorded).
    ///
    /// State caching with sleep sets follows the classic revisit
    /// rule: a state stored with sleep set `T` has had every
    /// transition outside `T` explored. Arriving again with sleep
    /// `S ⊇ T` there is nothing new to do; arriving with a smaller
    /// `S` re-awakens exactly `T \ S` — those transitions run with
    /// everything else treated as already explored, and the stored
    /// set shrinks to `T ∩ S`.
    fn dfs(&mut self, state: &M::State, sleep: &[Footprint], depth: usize) -> bool {
        if depth > self.limits.max_depth {
            self.fail(Failure::DepthExceeded { depth });
            return false;
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);

        let h = self.model.fingerprint(state);
        let sleep_keys: Vec<u64> = sleep.iter().map(|f| f.key).collect();
        // Keys whose transitions are newly awake on a revisit; None
        // on a first visit (everything outside `sleep` runs).
        let mut awaken: Option<Vec<u64>> = None;
        match self.visited.get_mut(&h) {
            None => {
                self.visited.insert(h, sleep_keys);
            }
            Some(stored) => {
                if stored.iter().all(|k| sleep_keys.contains(k)) {
                    self.stats.revisits += 1;
                    return true;
                }
                let wake: Vec<u64> = stored
                    .iter()
                    .copied()
                    .filter(|k| !sleep_keys.contains(k))
                    .collect();
                stored.retain(|k| sleep_keys.contains(k));
                awaken = Some(wake);
            }
        }
        self.stats.states = self.visited.len();
        if self.stats.states > self.limits.max_states {
            self.fail(Failure::StateSpaceExceeded {
                states: self.stats.states,
            });
            return false;
        }

        let enabled = self.model.enabled(state);
        if enabled.is_empty() {
            self.stats.terminals += 1;
            if let Some(v) = self.model.terminal_violation(state) {
                self.fail(Failure::Property(v));
                return false;
            }
            return true;
        }

        // The working sleep set: the inherited one, plus — on a
        // revisit — every transition already explored on an earlier
        // visit (anything not newly awakened).
        let mut working: Vec<Footprint> = sleep.to_vec();
        let feet: Vec<Footprint> = enabled
            .iter()
            .map(|a| Footprint {
                key: hash64(a),
                mask: self.model.footprint(state, a),
            })
            .collect();
        if let Some(wake) = &awaken {
            for f in &feet {
                if !wake.contains(&f.key) && !working.iter().any(|w| w.key == f.key) {
                    working.push(*f);
                }
            }
        }

        // Sleep-set DFS: siblings already explored join the sleep
        // set of later subtrees until a dependent action wakes them.
        for (action, foot) in enabled.iter().zip(&feet) {
            if self.por && working.iter().any(|s| s.key == foot.key) {
                self.stats.pruned += 1;
                continue;
            }
            self.stats.transitions += 1;
            self.trail.push(action.to_string());
            let go_on = match self.model.step(state, action) {
                Ok(next) => {
                    let child_sleep: Vec<Footprint> = if self.por {
                        working
                            .iter()
                            .filter(|s| s.independent(foot))
                            .copied()
                            .collect()
                    } else {
                        Vec::new()
                    };
                    self.dfs(&next, &child_sleep, depth + 1)
                }
                Err(v) => {
                    self.fail(Failure::Property(v));
                    false
                }
            };
            self.trail.pop();
            if !go_on {
                return false;
            }
            working.push(*foot);
        }
        true
    }
}

/// Exhausts `model`'s state space (or refutes a property). `por`
/// toggles the sleep-set reduction — exploration is exhaustive
/// either way; the toggle exists so tests can demonstrate the
/// reduction reduces.
pub fn explore<M: Space>(model: &M, por: bool, limits: Limits) -> Outcome<M::Violation> {
    let mut ex = Explorer {
        model,
        por,
        limits,
        visited: HashMap::new(),
        stats: Stats::default(),
        violation: None,
        trail: Vec::new(),
    };
    ex.dfs(&model.initial(), &[], 0);
    Outcome {
        stats: ex.stats,
        violation: ex.violation,
    }
}
