//! Unified structured tracing for HiPress: where time goes, in both
//! execution backends.
//!
//! The paper's headline evidence is observational — Figure 9 contrasts
//! GPU-utilization timelines, and §5 attributes iteration time to
//! encode/decode/transfer phases. This crate is the one timeline model
//! those observations lower into, regardless of which engine produced
//! them:
//!
//! * the **discrete-event simulator** records per-task spans stamped
//!   with simulated nanoseconds (`hipress_core::Executor::run_traced`),
//! * **CaSync-RT** records per-task spans, queue-depth counters, and
//!   fabric events stamped with wall-clock nanoseconds
//!   (`hipress_runtime::run` with a tracer among its instruments).
//!
//! Both produce the same [`Trace`]: named tracks (one per node thread,
//! plus counter tracks for `Q_comp`/`Q_commu` depths) carrying spans
//! with a category, a start, a duration, and numeric arguments. On top
//! of that shared model the crate provides:
//!
//! * [`Tracer`] — a thread-safe recording handle (`Mutex` inside, one
//!   clone per worker thread) with RAII [`Span`] guards and atomic
//!   [`Counter`]s;
//! * [`LatencyHistogram`] — log-bucketed per-primitive latency
//!   distributions (p50/p90/p99/max) built on `hipress-util`'s
//!   streaming statistics;
//! * [`chrome`] — a hand-rolled Chrome trace-event JSON writer *and
//!   reader*, so exports load in `chrome://tracing`/Perfetto and
//!   round-trip through the crate's own parser;
//! * [`diff`] — per-category comparison of two traces (the
//!   `hipress trace-diff` subcommand);
//! * [`view`] — textual Figure-9-style utilization bars and a
//!   per-category latency summary.
//!
//! Everything is `std`-only: the JSON serializer and parser are part
//! of the crate (the workspace builds fully offline).

#![forbid(unsafe_code)]

pub mod chrome;
pub mod diff;
pub mod hist;
pub mod json;
pub mod model;
pub mod tracer;
pub mod view;

pub use diff::TraceDiff;
pub use hist::LatencyHistogram;
pub use model::{Event, Trace, Track, TrackId, TrackKind};
pub use tracer::{Counter, Span, Tracer};
