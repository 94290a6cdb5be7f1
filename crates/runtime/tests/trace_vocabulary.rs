//! The runtime's trace vocabulary, pinned.
//!
//! Every event CaSync-RT records is a `(category, name, arg keys)`
//! triple, and tools downstream (`RuntimeReport::from_trace`, the
//! clock validator, Chrome export, `trace-diff`) key on those strings.
//! These tests pin the whole vocabulary of three traced runs — a
//! pipelined threads run, a recoverable chaos run and a merged
//! multi-worker trace — and the tracks each registers, in order, so a
//! refactor of how events are recorded cannot rename, drop or add one
//! unnoticed. Entries that only timing decides (a batch launch, a
//! retransmission, an injected fault) may appear but need not.

use hipress_chaos::FaultPlan;
use hipress_compress::Algorithm;
use hipress_core::graph::FlowGeometry;
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use hipress_fabric::LinkTuning;
use hipress_runtime::{
    run, run_threaded_workers, DegradePolicy, FaultTolerance, Instruments, PipelineConfig,
    ProcessConfig, ReplicaFlows, RunOptions,
};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;
use hipress_trace::{Trace, Tracer, TrackKind};
use std::collections::BTreeSet;
use std::time::Duration;

/// `(category, name, sorted arg keys)`.
type Entry = (&'static str, &'static str, &'static [&'static str]);

const TASK: &[&str] = &["grad", "iter", "part", "task"];
const SEND: &[&str] = &["bytes_raw", "bytes_wire", "grad", "iter", "part", "task"];
const RECV: &[&str] = &["grad", "iter", "part", "send_task", "task"];
const LINK: &[&str] = &["bytes_framed", "bytes_payload", "frames", "retransmits"];

/// What every node of a pipelined onebit CaSync-PS run records.
const NODE_LOOP: &[Entry] = &[
    ("decode", "decode", TASK),
    ("encode", "encode", TASK),
    ("fabric", "msg", &["bytes", "task"]),
    ("iter_span", "iter_span", &["iter"]),
    ("link", "link", LINK),
    ("merge", "merge", TASK),
    ("recv", "recv", RECV),
    ("send", "send", SEND),
    ("source", "source", TASK),
    ("update", "update", TASK),
];

/// The run span of a fixed-membership run.
const RUN: Entry = ("run", "run", &["iterations", "nodes", "window"]);

/// Entries only timing decides, on any run.
const TIMING: &[Entry] = &[
    ("batch", "batch", &["size"]),
    ("chaos", "corrupt", &[]),
    ("chaos", "delay", &[]),
    ("chaos", "drop", &[]),
    ("chaos", "dup", &[]),
    ("chaos", "reorder", &[]),
    ("ft", "corrupt_detected", &[]),
    ("ft", "dup_ignored", &[]),
    ("ft", "nack", &[]),
    ("ft", "retry", &[]),
    ("ft", "skip", &[]),
];

type Vocabulary = BTreeSet<(String, String, Vec<String>)>;

fn vocabulary(trace: &Trace) -> Vocabulary {
    trace
        .tracks()
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| {
            let keys = e.args.iter().map(|(k, _)| k.clone()).collect();
            (e.category.clone(), e.name.clone(), keys)
        })
        .collect()
}

fn owned(entries: &[Entry]) -> Vocabulary {
    entries
        .iter()
        .map(|&(c, n, keys)| {
            let keys = keys.iter().map(|k| k.to_string()).collect();
            (c.to_string(), n.to_string(), keys)
        })
        .collect()
}

/// Asserts `trace` records every entry of `required`, and nothing
/// outside `required` and [`TIMING`].
fn assert_vocabulary(what: &str, trace: &Trace, required: &[Entry]) {
    let seen = vocabulary(trace);
    let required = owned(required);
    let missing: Vec<_> = required.difference(&seen).collect();
    assert!(missing.is_empty(), "{what}: never recorded {missing:?}");
    let allowed: Vocabulary = required.union(&owned(TIMING)).cloned().collect();
    let unknown: Vec<_> = seen.difference(&allowed).collect();
    assert!(unknown.is_empty(), "{what}: unpinned entries {unknown:?}");
}

/// The tracks of `trace` in registration order, kinds included.
fn tracks(trace: &Trace) -> Vec<(String, TrackKind)> {
    trace
        .tracks()
        .iter()
        .map(|t| (t.name.clone(), t.kind))
        .collect()
}

/// `node{n}`, `node{n}/Q_comp`, `node{n}/Q_commu` for each node.
fn node_tracks(nodes: usize) -> Vec<(String, TrackKind)> {
    (0..nodes)
        .flat_map(|n| {
            [
                (format!("node{n}"), TrackKind::Thread),
                (format!("node{n}/Q_comp"), TrackKind::Counter),
                (format!("node{n}/Q_commu"), TrackKind::Counter),
            ]
        })
        .collect()
}

const NODES: usize = 3;
const SIZES: [usize; 2] = [384, 96];
const PIPELINED: PipelineConfig = PipelineConfig {
    iterations: 4,
    window: 2,
};

fn grad(node: usize, g: usize, replica: usize) -> Tensor {
    let seed = (node * 1000 + g * 10 + replica) as u64;
    generate(SIZES[g], GradientShape::Gaussian { std_dev: 1.0 }, seed)
}

fn worker_grads() -> Vec<Vec<Tensor>> {
    (0..NODES)
        .map(|w| (0..SIZES.len()).map(|g| grad(w, g, 0)).collect())
        .collect()
}

fn onebit_ps() -> hipress_core::graph::TaskGraph {
    let iter = IterationSpec {
        gradients: SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| SyncGradient {
                name: format!("g{i}"),
                bytes: (n * 4) as u64,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: true,
                    partitions: 2,
                },
            })
            .collect(),
        compression: Some(CompressionSpec::of(
            Algorithm::OneBit.build().unwrap().as_ref(),
        )),
    };
    Strategy::CaSyncPs
        .build(&ClusterConfig::ec2(NODES), &iter)
        .unwrap()
}

fn traced(tracer: &Tracer) -> Instruments<'_> {
    Instruments {
        tracer: Some(tracer),
        ..Instruments::default()
    }
}

/// A pipelined threads run with two local replicas per node, so every
/// `Source` also records its nested `local_agg` span.
#[test]
fn a_threads_run_records_the_pinned_vocabulary() {
    let graph = onebit_ps();
    let geometry = FlowGeometry::of(&graph);
    let flows: ReplicaFlows = geometry
        .flows()
        .iter()
        .map(|f| {
            let g = f.flow as usize;
            let per_node = (0..NODES)
                .map(|n| vec![grad(n, g, 0), grad(n, g, 1)])
                .collect();
            (f.flow, per_node)
        })
        .collect();
    let c = Algorithm::OneBit.build().unwrap();
    let tracer = Tracer::new("casync-rt");
    run(
        &graph,
        NODES,
        &flows,
        Some(c.as_ref()),
        7,
        &RunOptions {
            pipeline: PIPELINED,
            instruments: traced(&tracer),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let trace = tracer.finish();
    let mut required = NODE_LOOP.to_vec();
    required.extend([RUN, ("local_agg", "local_agg", &["replicas"] as &[&str])]);
    assert_vocabulary("threads", &trace, &required);
    let mut want = vec![("engine".to_string(), TrackKind::Thread)];
    want.extend(node_tracks(NODES));
    assert_eq!(tracks(&trace), want);
}

/// A recoverable chaos run: the node loop's vocabulary plus whichever
/// injections and recoveries the plan and timing produced.
#[test]
fn a_chaos_run_records_the_pinned_vocabulary() {
    let graph = onebit_ps();
    let flows = FlowGeometry::of(&graph).inputs(&worker_grads()).unwrap();
    let c = Algorithm::OneBit.build().unwrap();
    let tolerance = FaultTolerance {
        recv_deadline: Duration::from_secs(8),
        link: LinkTuning {
            retry_budget: 8,
            base_backoff: Duration::from_millis(3),
            max_backoff: Duration::from_millis(100),
        },
        straggler_factor: 4.0,
        straggler_floor: Duration::from_millis(50),
        policy: DegradePolicy::Wait,
    };
    let tracer = Tracer::new("casync-chaos");
    let out = run(
        &graph,
        NODES,
        &hipress_runtime::replicate(&flows),
        Some(c.as_ref()),
        31,
        &RunOptions {
            pipeline: PIPELINED,
            instruments: traced(&tracer),
            chaos: Some((tolerance, FaultPlan::recoverable(12))),
        },
    )
    .unwrap();
    let trace = tracer.finish();
    assert!(out.report.faults.total_injected() > 0);
    let mut required = NODE_LOOP.to_vec();
    required.push(RUN);
    assert_vocabulary("chaos", &trace, &required);
    let mut want = vec![("engine".to_string(), TrackKind::Thread)];
    want.extend(node_tracks(NODES));
    assert_eq!(tracks(&trace), want);
}

/// A merged multi-worker trace: each rank's node-loop vocabulary, the
/// coordinator's clock-alignment instants and its run span.
#[test]
fn a_merged_worker_trace_records_the_pinned_vocabulary() {
    let tracer = Tracer::new("casync-rt");
    run_threaded_workers(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        2,
        &worker_grads(),
        13,
        &PIPELINED,
        &ProcessConfig::default(),
        traced(&tracer),
    )
    .unwrap();
    let trace = tracer.finish();
    let mut required = NODE_LOOP.to_vec();
    required.extend([
        RUN,
        (
            "clock",
            "offset",
            &["offset_zz", "rank", "uncertainty_ns"] as &[&str],
        ),
    ]);
    assert_vocabulary("workers", &trace, &required);
    // Each rank's tracks as it shipped them, its clock instant after
    // them, and the run span last.
    let mut want = Vec::new();
    for n in 0..NODES {
        want.extend(node_tracks(NODES).into_iter().skip(3 * n).take(3));
        if n == 0 {
            want.push(("clock".to_string(), TrackKind::Thread));
        }
    }
    want.push(("engine".to_string(), TrackKind::Thread));
    assert_eq!(tracks(&trace), want);
}
