//! # HiPress-rs
//!
//! A from-scratch Rust reproduction of **"Gradient Compression
//! Supercharged High-Performance Data Parallel DNN Training"**
//! (SOSP 2021): the HiPress framework, built from the **CaSync**
//! compression-aware gradient synchronization architecture and the
//! **CompLL** gradient-compression toolkit.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`compress`] | `hipress-compress` | onebit, TBQ, TernGrad, DGC, GradDrop (+ OSS baselines, error feedback) |
//! | [`compll`] | `hipress-compll` | the compression DSL: lexer → parser → type checker → interpreter → CUDA emitter |
//! | [`casync`] | `hipress-core` | five-primitive task graphs, strategies (CaSync-PS/Ring, BytePS, Horovod-Ring), coordinator, executor, protocol interpreter |
//! | [`planner`] | `hipress-planner` | selective compression & partitioning (§3.3 cost model, Table 7) |
//! | [`runtime`] | `hipress-runtime` | CaSync-RT: the protocol on real OS threads, cross-validated against the interpreter |
//! | [`lint`] | `hipress-lint` | static plan verification for CaSync task graphs (single-iteration and pipelined) + dataflow analysis for CompLL programs |
//! | [`verify`] | `hipress-verify` | bounded model checking of the CaSync-RT wire/fault-tolerance protocol |
//! | [`metrics`] | `hipress-metrics` | live metric registry, machine-readable snapshots, regression diffs |
//! | [`train`] | `hipress-train` | cluster throughput simulation + real MLP/LSTM data-parallel training |
//! | [`models`] | `hipress-models` | the Table 6 model zoo |
//! | [`sim`](mod@simevent) / [`simnet`] / [`simgpu`] | substrates | discrete-event engine, network fabric, GPU cost models |
//!
//! ## Quickstart
//!
//! ```
//! use hipress::prelude::*;
//!
//! // Train Bert-large with HiPress (CaSync-PS + CompLL-onebit) on a
//! // 4-node EC2-like cluster, and compare against the BytePS
//! // baseline.
//! let cluster = ClusterConfig::ec2(4);
//! let hipress = simulate(&TrainingJob::hipress(
//!     DnnModel::BertLarge,
//!     cluster,
//!     Strategy::CaSyncPs,
//! ))
//! .unwrap();
//! let byteps = simulate(&TrainingJob::baseline(
//!     DnnModel::BertLarge,
//!     cluster.with_tcp(),
//!     Strategy::BytePs,
//! ))
//! .unwrap();
//! assert!(hipress.throughput > byteps.throughput);
//! ```

#![forbid(unsafe_code)]

pub mod sync;

pub use hipress_chaos as chaos;
pub use hipress_compll as compll;
pub use hipress_compress as compress;
pub use hipress_core as casync;
pub use hipress_fabric as fabric;
pub use hipress_lint as lint;
pub use hipress_metrics as metrics;
pub use hipress_models as models;
pub use hipress_obs as obs;
pub use hipress_planner as planner;
pub use hipress_runtime as runtime;
pub use hipress_simevent as simevent;
pub use hipress_simgpu as simgpu;
pub use hipress_simnet as simnet;
pub use hipress_tensor as tensor;
pub use hipress_trace as trace;
pub use hipress_train as train;
pub use hipress_util as util;
pub use hipress_verify as verify;

/// The most common imports for experiments.
pub mod prelude {
    pub use hipress_chaos::FaultPlan;
    pub use hipress_compress::{Algorithm, Compressor, ErrorFeedback};
    pub use hipress_core::{ClusterConfig, ExecConfig, Executor, GradPlan, Strategy};
    pub use hipress_metrics::{MetricsDiff, MetricsSnapshot, Registry, Scope};
    pub use hipress_models::{DnnModel, GpuClass};
    pub use hipress_obs::Telemetry;
    pub use hipress_planner::Planner;
    pub use hipress_runtime::{
        DegradePolicy, FaultTolerance, PipelineConfig, ProcessConfig, RuntimeReport,
    };
    pub use hipress_simnet::LinkSpec;
    pub use hipress_trace::{chrome, TraceDiff, Tracer};
    pub use hipress_train::{simulate, simulate_with_tracer, SimResult, TrainingJob};

    pub use crate::sync::{Backend, HiPress, SyncOutcome};
}
