//! CaSync — the compression-aware gradient synchronization
//! architecture of HiPress (§3 of the paper).
//!
//! CaSync decomposes gradient synchronization into five primitives —
//! `encode`, `decode`, `merge`, `send`, `recv` — arranged into a task
//! DAG per gradient by a *strategy* (CaSync-PS or CaSync-Ring), and
//! executed asynchronously by a task manager ([`sched`]) that tracks
//! dependencies and two task queues (computing and communication). On
//! top of that
//! sit the paper's three optimizations:
//!
//! * **pipelining** (§3.1): tasks from different gradients/partitions
//!   interleave freely, hiding compression behind communication and
//!   vice versa;
//! * **compression-aware bulk synchronization** (§3.2): a global
//!   coordinator batches small transfers per link and small
//!   compression kernels per GPU;
//! * **selective compression and partitioning** (§3.3): a per-gradient
//!   plan decides whether to compress and into how many partitions to
//!   split (computed by the `hipress-planner` crate).
//!
//! The same machinery expresses the paper's baselines — BytePS-style
//! PS and Horovod-style Ring-allreduce, each with or without coupled
//! compression — so HiPress and the systems it is compared against
//! run on identical substrates.
//!
//! Two execution backends consume the task graphs:
//!
//! * [`exec::Executor`] — the timing simulator (discrete events, FIFO
//!   NIC/GPU resources) producing iteration latencies, utilization
//!   timelines, and busy statistics;
//! * [`interp::interpret`] — the semantic interpreter that runs the
//!   same graph over *real tensors with real compression*, used to
//!   verify protocol correctness (all nodes converge to identical,
//!   correctly aggregated gradients).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod exec;
pub mod graph;
pub mod interp;
pub mod plan;
pub mod sched;
pub mod strategy;
pub mod topology;

pub use cluster::ClusterConfig;
pub use exec::{ExecConfig, ExecStats, Executor};
pub use graph::{ChunkId, Primitive, TaskGraph, TaskId, TaskNode};
pub use plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
pub use strategy::Strategy;
pub use topology::{Roles, Topology, TopologyKind};
