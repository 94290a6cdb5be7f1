//! The shared metric-name catalogue.
//!
//! Both execution backends emit the *same* names — CaSync-RT records
//! them live from wall-clock measurements, the simulator through
//! `SimResult::record_metrics` — so a simulated and a measured run of
//! one plan differ only in values, and sim-vs-measured is a plain
//! [`crate::MetricsDiff`]. Names follow the polarity
//! convention [`crate::Polarity::of_name`] gates on: `*_ns` durations
//! and `*retransmit*` counters regress upward,
//! `*throughput*`/`*savings*`/`*efficiency*`/`*_per_sec` rates
//! regress downward, everything else is informational.

/// Per-primitive latency histograms: `source_ns`, `encode_ns`,
/// `decode_ns`, `merge_ns`, `send_ns`, `recv_ns`, `update_ns`,
/// `barrier_ns` — one per span category of the eight primitives, in
/// report order.
pub const PRIM_NS: [&str; 8] = [
    "source_ns",
    "encode_ns",
    "decode_ns",
    "merge_ns",
    "send_ns",
    "recv_ns",
    "update_ns",
    "barrier_ns",
];

/// Local replica-aggregation latency histogram (§3.1).
pub const LOCAL_AGG_NS: &str = "local_agg_ns";

/// Counter: bytes actually moved through the fabric.
pub const BYTES_WIRE: &str = "bytes_wire";

/// Counter: bytes the same sends would have moved uncompressed.
pub const BYTES_RAW: &str = "bytes_raw";

/// Counter: messages delivered between nodes.
pub const MESSAGES: &str = "messages";

/// Counter: batched codec launches (batch compression, §3.2).
pub const COMP_BATCH_LAUNCHES: &str = "comp_batch_launches";

/// Gauge: end-to-end wall time of the run, nanoseconds.
pub const WALL_NS: &str = "wall_ns";

/// Gauge: number of nodes that executed the plan.
pub const NODES: &str = "nodes";

/// Gauge: raw gradient bytes synchronized per wall-clock second.
pub const THROUGHPUT: &str = "throughput_bytes_per_sec";

/// Gauge: wire-volume reduction factor (`bytes_raw / bytes_wire`,
/// 1.0 uncompressed). Named `savings`, not `ratio`, so the gate
/// treats growth as improvement.
pub const COMPRESSION_SAVINGS: &str = "compression_savings";

/// Series: per-iteration wall time, nanoseconds.
pub const ITERATION_NS: &str = "iteration_ns";

/// Histogram: `Q_comp` occupancy sampled at queue transitions.
pub const Q_COMP_DEPTH: &str = "q_comp_depth";

/// Histogram: `Q_commu` occupancy sampled at queue transitions.
pub const Q_COMMU_DEPTH: &str = "q_commu_depth";

/// Counter: cost-model evaluations performed by the planner.
pub const PLANNER_EVALS: &str = "planner_cost_evals";

/// Histogram: the planner's predicted synchronization time for each
/// planned gradient (the winning side of Eq. 1 vs Eq. 2), ns.
pub const PLANNER_PREDICTED_SYNC_NS: &str = "planner_predicted_sync_ns";

/// Gauge: cluster-wide training throughput in samples per second
/// (the simulator's headline figure; the runtime reports
/// [`THROUGHPUT`] in bytes because it syncs gradients, not batches).
pub const SAMPLES_PER_SEC: &str = "throughput_samples_per_sec";

/// Gauge: the paper's scaling efficiency — throughput over
/// `GPUs × single-GPU throughput`.
pub const SCALING_EFFICIENCY: &str = "scaling_efficiency";

/// Gauge: the busiest node's network activity over the iteration
/// (Table 1). Informational: it can legitimately move either way.
pub const COMM_RATIO: &str = "comm_ratio";

/// Gauge: pure single-GPU compute time per iteration (fwd+bwd), ns.
pub const COMPUTE_NS: &str = "compute_ns";

/// Gauge: when the last gradient finished synchronizing, measured
/// from the start of backward, ns.
pub const SYNC_FINISH_NS: &str = "sync_finish_ns";

/// Counter: batched network flushes the simulated coordinator
/// performed.
pub const LINK_FLUSHES: &str = "link_flushes";

/// Counter: discrete events processed by the simulator.
pub const SIM_EVENTS: &str = "sim_events";

/// Counter: faults injected by a chaos plan, labelled `kind`
/// (`drop`, `dup`, `reorder`, `delay`, `corrupt`, `stall`).
/// Informational — a chaos run injecting more faults is not a
/// regression, it is the plan doing its job.
pub const CHAOS_INJECTED: &str = "chaos_injected";

/// Counter: timer-driven retransmissions by the fault-tolerant
/// protocol.
pub const FT_RETRIES: &str = "ft_retries";

/// Counter: nacks sent for corrupt arrivals.
pub const FT_NACKS: &str = "ft_nacks";

/// Counter: intact arrivals discarded by receiver-side dedup.
pub const FT_DUPLICATES_IGNORED: &str = "ft_duplicates_ignored";

/// Counter: corrupt arrivals caught by checksum verification.
pub const FT_CORRUPTIONS_DETECTED: &str = "ft_corruptions_detected";

/// Counter: chunk contributions skipped by the degradation policy.
pub const FT_DEGRADED_CHUNKS: &str = "ft_degraded_chunks";

/// Counter: straggler diagnoses, labelled `action`
/// (`waited`, `skipped`, `aborted`).
pub const FT_STRAGGLER_VERDICTS: &str = "ft_straggler_verdicts";

/// Counter: data frames the transport fabric sent. Informational —
/// frame counts track graph shape, not performance.
pub const FABRIC_FRAMES: &str = "fabric_frames";

/// Counter: bytes of encoded frames the fabric sent, headers
/// included. Informational; compare against `bytes_wire` to see the
/// framing overhead.
pub const FABRIC_BYTES_FRAMED: &str = "fabric_bytes_framed";

/// Counter: payload bytes inside those frames, before framing.
/// Informational; `fabric_bytes_framed − fabric_bytes_payload` is the
/// header tax.
pub const FABRIC_BYTES_PAYLOAD: &str = "fabric_bytes_payload";

/// Counter: frame retransmissions performed by the fabric's
/// reliability layer. Lower is better — loopback runs keep it at
/// zero, and growth means the reliability layer is resending work.
pub const FABRIC_RETRANSMITS: &str = "fabric_retransmits";

/// Gauge: fraction of iteration time the pipelined runtime hid by
/// overlapping iterations, in `[0, 1)`. Higher is better.
pub const PIPELINE_OVERLAP: &str = "pipeline_overlap_efficiency";

/// Counter: SLO watchdog alerts fired by the live telemetry plane,
/// labelled `kind` (`iteration_latency_regression`, `retransmit_storm`,
/// `overlap_collapse`, `straggler_rank`, `heartbeat_gap`).
/// Informational for the perf gate — alert *presence* is asserted
/// directly by the telemetry smoke test, not by the diff.
pub const ALERTS_TOTAL: &str = "alerts_total";
