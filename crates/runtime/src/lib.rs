//! CaSync-RT: a real multi-threaded execution engine for the CaSync
//! gradient-synchronization protocol.
//!
//! The rest of the workspace *simulates* CaSync: the discrete-event
//! executor charges modelled costs against virtual clocks, and the
//! interpreter in [`hipress_core::interp`] checks dataflow semantics
//! one task at a time. This crate *executes* it: one OS thread per
//! cluster node, `std::sync::mpsc` channels as the network fabric,
//! and the actual `hipress-compress` codecs encoding, merging, and
//! decoding real `f32` gradients. Each node thread runs the paper's
//! task manager — two ready queues (computing vs. communication) fed
//! by dependency-count promotion on completion events.
//!
//! The engine and the interpreter are cross-validated bit for bit:
//! the same graph, inputs, and seed produce byte-identical installed
//! parameters on every replica under both executions, for every
//! compression algorithm on both CaSync-PS and CaSync-Ring. That
//! equivalence is what licenses trusting the simulator's timing
//! studies and the runtime's wall-clock measurements as two views of
//! one system.
//!
//! There is one node loop and one way in. [`run`] drives
//! [`pipeline`]'s task manager on one thread per node over the
//! in-process channel fabric — a single synchronization is simply
//! `iterations = 1, window = 1` of the pipelined loop — and the
//! process backend ([`process`]) drives the very same loop over a
//! loopback TCP mesh. Setting [`RunOptions::chaos`] revokes trust in
//! the channel fabric by changing only the link under that loop
//! ([`ft::FtLink`]): each message is serialized into a
//! sequence-numbered, checksummed data frame — the TCP fabric's
//! frame, tracked by the same [`hipress_fabric::rel`] machine
//! ([`protocol`]) — that passes a deterministic fault injector
//! ([`hipress_chaos`]), with per-link retransmission and
//! receiver-side dedup, straggler detection, and configurable
//! degradation. Recoverable fault plans yield
//! bit-for-bit the fault-free result; unrecoverable ones produce a
//! structured [`hipress_util::SyncFailure`] naming the node, peer,
//! and task — never a hang.

#![forbid(unsafe_code)]

pub mod engine;
pub mod ft;
pub mod observe;
pub mod pipeline;
pub mod process;
pub mod protocol;
pub mod report;
pub mod wire;

pub use engine::{
    replicate, sum_replicas, Flows, Instruments, Msg, Payload, ReplicaFlows, RunOutcome,
};
pub use ft::{DegradePolicy, FaultTolerance};
pub use observe::{
    validate_clock_monotonicity, ClockSync, PostmortemDump, PostmortemMagic, RankFlight,
};
pub use pipeline::{run, PipelineConfig, RunOptions};
pub use process::elastic::join_main;
pub use process::{node_main, run_processes, run_threaded_workers, ProcessConfig};
pub use report::{DegradeAction, FaultReport, PrimStat, RuntimeReport, StragglerVerdict};

/// Which machinery executes a synchronization graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The single-threaded semantic interpreter (reference
    /// semantics, no wall-clock measurement).
    Simulator,
    /// The thread engine with one OS thread per node; the value is
    /// the node count and must match the number of workers.
    Threads(usize),
    /// Real OS processes — one per node — synchronizing over a
    /// loopback TCP mesh ([`hipress_fabric`]); the value is the node
    /// count and must match the number of workers.
    Processes(usize),
}
