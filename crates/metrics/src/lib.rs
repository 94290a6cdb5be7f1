//! Live metrics for HiPress: a typed registry, machine-readable bench
//! snapshots, and perf diffs.
//!
//! The paper's argument is quantitative — throughput, sync time,
//! scaling efficiency (Figures 7–13, Tables 1/5/7) — and PR 3's
//! tracing answers *where time went* after the fact. This crate is the
//! live counterpart: numbers that accumulate while the system runs,
//! serialize to a schema-versioned JSON snapshot, and diff against a
//! committed baseline so CI notices when the runtime or the simulator
//! gets slower.
//!
//! The pieces:
//!
//! * [`Registry`] / [`Scope`] — the typed metric store. Four
//!   instrument kinds: [`Counter`] (monotonic, atomic), [`Gauge`]
//!   (`f64` last-value), [`Histogram`] (lock-free, sharing
//!   `hipress-trace`'s log-bucket geometry so live and trace-derived
//!   distributions compare exactly), and [`TimeSeries`] (fixed-capacity
//!   decimating sampler). Recording is lock-free; engines hold an
//!   `Option<&Scope>` and pay nothing when none is installed.
//! * [`names`] — the metric catalogue both execution backends emit,
//!   which is what makes sim-vs-measured a key-aligned diff.
//! * [`MetricsSnapshot`] — immutable point-in-time state with
//!   associative [`MetricsSnapshot::merge`], JSON in both directions
//!   (`BENCH_*.json`, schema [`snapshot::SCHEMA`]), and a Prometheus
//!   text form ([`prom`]).
//! * [`MetricsDiff`] / [`Polarity`] — key-by-key comparison with
//!   name-derived good directions; the `hipress bench --baseline`
//!   regression gate is [`MetricsDiff::regressions`].
//! * [`view`] — sparkline/table dashboard for `hipress report`.
//!
//! Everything is `std`-only; the JSON machinery is shared with
//! `hipress-trace` (the workspace builds fully offline).

#![forbid(unsafe_code)]

pub mod diff;
pub mod names;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod view;

pub use diff::{DiffRow, MetricsDiff, Polarity};
pub use registry::{Counter, Gauge, Histogram, Key, LabelSet, Registry, Scope, TimeSeries};
pub use snapshot::{HistSummary, MetricValue, MetricsSnapshot};
