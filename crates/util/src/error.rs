//! The common error type shared across HiPress crates.

use std::fmt;

/// Errors produced by HiPress components.
///
/// Lower-level crates return these directly; higher-level crates wrap
/// them with context. Fallible APIs are preferred over panics
/// throughout the workspace; panics are reserved for programming
/// errors (violated internal invariants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A compressed payload could not be decoded (truncated stream,
    /// bad magic, inconsistent metadata).
    Codec(String),
    /// A CompLL DSL program failed to lex, parse, or type-check.
    Dsl(String),
    /// An experiment or component was configured inconsistently
    /// (e.g., a ring of one node, a negative bandwidth).
    Config(String),
    /// The discrete-event simulation reached an invalid state
    /// (e.g., a dependency cycle between tasks).
    Sim(String),
    /// The planner could not produce a plan (e.g., missing profile).
    Plan(String),
    /// Static analysis rejected a task graph or CompLL program
    /// (`hipress-lint` diagnostics rendered into one message).
    Lint(String),
    /// The fault-tolerant runtime diagnosed a protocol failure — a
    /// dead link, a silent peer, a straggler the policy would not
    /// wait for — and unwound cleanly instead of hanging. Structured:
    /// it names the node that diagnosed it, the peer/link, and the
    /// task involved, so callers can act on *where*, not just *that*.
    Sync(SyncFailure),
}

/// What kind of synchronization failure was diagnosed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFailureKind {
    /// No progress within the receive deadline: some peer went silent.
    RecvTimeout,
    /// A link exhausted its retransmission budget without an ack.
    LinkDead,
    /// A straggling peer tripped the detector under an abort policy.
    Straggler,
    /// A node stopped mid-protocol on an injected crash trigger.
    InjectedCrash,
    /// The node unwound because a peer broadcast an abort.
    Aborted,
}

impl SyncFailureKind {
    /// Severity rank for picking the root cause among several node
    /// errors: detections outrank the injected crash that caused
    /// them (the crashed node "knows" it crashed, but the *diagnosis*
    /// is what the protocol is being tested on), and both outrank the
    /// abort echoes they trigger. Rank 2 belongs to errors that are
    /// not sync failures at all ([`Error::root_cause_rank`]).
    pub fn rank(self) -> u8 {
        match self {
            SyncFailureKind::RecvTimeout
            | SyncFailureKind::LinkDead
            | SyncFailureKind::Straggler => 0,
            SyncFailureKind::InjectedCrash => 1,
            SyncFailureKind::Aborted => 3,
        }
    }
}

/// A structured synchronization failure: what went wrong, observed by
/// whom, about which peer/link, at which task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncFailure {
    /// The failure class.
    pub kind: SyncFailureKind,
    /// The node that diagnosed (or suffered) the failure.
    pub node: usize,
    /// The peer / far end of the link involved, when known.
    pub peer: Option<usize>,
    /// The task id involved, when known.
    pub task: Option<u32>,
    /// Free-form detail (timings, budgets).
    pub detail: String,
}

impl fmt::Display for SyncFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SyncFailureKind::RecvTimeout => write!(f, "node {} timed out", self.node)?,
            SyncFailureKind::LinkDead => write!(f, "node {}: link dead", self.node)?,
            SyncFailureKind::Straggler => write!(f, "node {}: straggler", self.node)?,
            SyncFailureKind::InjectedCrash => {
                write!(f, "node {} crashed mid-protocol", self.node)?;
            }
            SyncFailureKind::Aborted => write!(f, "node {} aborted", self.node)?,
        }
        if let Some(p) = self.peer {
            write!(f, " (peer node {p}")?;
            if let Some(t) = self.task {
                write!(f, ", task {t}")?;
            }
            write!(f, ")")?;
        } else if let Some(t) = self.task {
            write!(f, " (task {t})")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

impl Error {
    /// Creates a [`Error::Codec`] with the given message.
    pub fn codec(msg: impl Into<String>) -> Self {
        Self::Codec(msg.into())
    }

    /// Creates a [`Error::Dsl`] with the given message.
    pub fn dsl(msg: impl Into<String>) -> Self {
        Self::Dsl(msg.into())
    }

    /// Creates a [`Error::Config`] with the given message.
    pub fn config(msg: impl Into<String>) -> Self {
        Self::Config(msg.into())
    }

    /// Creates a [`Error::Sim`] with the given message.
    pub fn sim(msg: impl Into<String>) -> Self {
        Self::Sim(msg.into())
    }

    /// Creates a [`Error::Plan`] with the given message.
    pub fn plan(msg: impl Into<String>) -> Self {
        Self::Plan(msg.into())
    }

    /// Creates a [`Error::Lint`] with the given message.
    pub fn lint(msg: impl Into<String>) -> Self {
        Self::Lint(msg.into())
    }

    /// Creates a [`Error::Sync`] from a structured failure.
    pub fn sync(failure: SyncFailure) -> Self {
        Self::Sync(failure)
    }

    /// The structured synchronization failure, if this is one.
    pub fn as_sync(&self) -> Option<&SyncFailure> {
        match self {
            Error::Sync(f) => Some(f),
            _ => None,
        }
    }

    /// How root-cause-like this error is among several nodes' errors
    /// from one run (lower wins): a sync failure by its
    /// [`SyncFailureKind::rank`], any other error — a root cause, but
    /// an undiagnosed one — after the diagnoses and the injected
    /// crash, ahead only of abort echoes.
    pub fn root_cause_rank(&self) -> u8 {
        self.as_sync().map_or(2, |f| f.kind.rank())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Dsl(m) => write!(f, "DSL error: {m}"),
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Sim(m) => write!(f, "simulation error: {m}"),
            Error::Plan(m) => write!(f, "planner error: {m}"),
            Error::Lint(m) => write!(f, "lint error: {m}"),
            Error::Sync(s) => write!(f, "sync error: {s}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        assert_eq!(
            Error::codec("truncated").to_string(),
            "codec error: truncated"
        );
        assert_eq!(Error::dsl("bad token").to_string(), "DSL error: bad token");
        assert_eq!(
            Error::config("ring of 1").to_string(),
            "configuration error: ring of 1"
        );
        assert_eq!(Error::sim("cycle").to_string(), "simulation error: cycle");
        assert_eq!(
            Error::plan("no profile").to_string(),
            "planner error: no profile"
        );
        assert_eq!(Error::lint("race").to_string(), "lint error: race");
    }

    #[test]
    fn sync_failure_names_node_link_task() {
        let f = SyncFailure {
            kind: SyncFailureKind::LinkDead,
            node: 0,
            peer: Some(1),
            task: Some(42),
            detail: "8 retransmissions unacknowledged".into(),
        };
        let s = Error::sync(f.clone()).to_string();
        assert_eq!(
            s,
            "sync error: node 0: link dead (peer node 1, task 42): \
             8 retransmissions unacknowledged"
        );
        assert_eq!(Error::sync(f.clone()).as_sync(), Some(&f));
        assert_eq!(Error::codec("x").as_sync(), None);
        let t = SyncFailure {
            kind: SyncFailureKind::InjectedCrash,
            node: 2,
            peer: None,
            task: None,
            detail: String::new(),
        };
        assert_eq!(t.to_string(), "node 2 crashed mid-protocol");
    }

    #[test]
    fn sync_failure_ranks_detections_first() {
        assert!(SyncFailureKind::RecvTimeout.rank() < SyncFailureKind::InjectedCrash.rank());
        assert!(SyncFailureKind::LinkDead.rank() < SyncFailureKind::Aborted.rank());
        assert!(SyncFailureKind::Straggler.rank() < SyncFailureKind::InjectedCrash.rank());
        assert!(SyncFailureKind::InjectedCrash.rank() < SyncFailureKind::Aborted.rank());
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::codec("x"));
    }
}
