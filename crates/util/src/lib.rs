//! Foundational utilities shared by every HiPress crate.
//!
//! This crate deliberately has no dependencies on the rest of the
//! workspace. It provides:
//!
//! * [`rng`] — deterministic, seed-stable pseudo random number
//!   generators (SplitMix64 and Xoshiro256**) used everywhere the
//!   simulation needs reproducible randomness.
//! * [`backoff`] — the doubling sleep of polling loops.
//! * [`bulk`] — the §3.2 batching constants every batching layer
//!   reads (the simulator, batch compression, the TCP send queue).
//! * [`bits`] — LSB-first bit-level readers and writers used by the
//!   quantization compressors and the CompLL packed-array runtime.
//! * [`codec`] — the byte codec every wire type uses: the
//!   little-endian [`codec::Writer`] / [`codec::Reader`], the
//!   [`codec::Field`] trait, and [`record!`], which declares a struct
//!   or tagged enum once and derives its codec. It lives here so any
//!   crate can declare the types it sends between processes.
//! * [`stats`] — streaming statistics (Welford) and percentile helpers
//!   used by the benchmark harness.
//! * [`units`] — byte/bandwidth/time unit conversions shared by the
//!   network and GPU cost models.
//! * [`fit`] — least-squares affine curve fitting used by the selective
//!   compression planner to model `T(m) = a + b*m` cost curves.
//! * [`table`] — the aligned-column text table shared by every report
//!   printer (runtime report, CLI summaries, bench tables).
//! * [`error`] — the common error type, itself a wire record (a
//!   worker's error reaches the coordinator with its category).

#![forbid(unsafe_code)]

pub mod backoff;
pub mod bits;
pub mod bulk;
pub mod codec;
pub mod error;
pub mod fit;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;

pub use error::{Error, Result, SyncFailure, SyncFailureKind};
pub use rng::{Rng64, SplitMix64, Xoshiro256};
