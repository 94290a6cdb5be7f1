//! The node recorder: where every event of the node loop lands.
//!
//! Each measurement CaSync-RT's node loop makes is one typed call on
//! its node's [`NodeRecorder`]: a task executed, a `local_agg` span, a
//! message delivered, a queue push or pop, a batch launch, an
//! iteration retired, the link counters at the end of the run, a fault
//! and a straggler verdict. The recorder folds the call into the report
//! the caller names and, for each instrument attached, into the metric
//! registry, the trace and the progress feed — so which event lands
//! where is decided here, once. With no instrument attached a call is
//! the report fold alone: no trace clock is read and nothing is
//! allocated.
//!
//! The run-level records — the `run` span on the `engine` track and
//! the run's metric gauges — are recorded here too.

use crate::engine::Instruments;
use crate::pipeline::PipelineConfig;
use crate::report::{DegradeAction, FaultReport, RuntimeReport, StragglerVerdict};
use hipress_core::graph::{TaskId, TaskNode};
use hipress_fabric::LinkCounters;
use hipress_metrics::{names, Histogram, Scope};
use hipress_obs::{IterRecord, ProgressSink};
use hipress_trace::{Counter, Tracer, TrackId};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// When something started: the instant its duration is measured from,
/// and the trace clock's reading then when a tracer is attached.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    at: Instant,
    trace_ns: Option<u64>,
}

impl Stamp {
    fn elapsed_ns(&self) -> u64 {
        self.at.elapsed().as_nanos() as u64
    }
}

/// The two ready queues of the task manager, in gauge order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Queue {
    /// `Q_comp`: computing primitives.
    Comp,
    /// `Q_commu`: communication primitives.
    Commu,
}

/// The fault events: what a fault plan injected, and what the
/// fault-tolerant link did about it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fault {
    Drop,
    Dup,
    Reorder,
    Delay,
    Corrupt,
    Stall,
    Retry,
    Nack,
    DupIgnored,
    CorruptDetected,
    Skip,
}

/// Per [`Fault`], in order: the trace instant `(category, name)` that
/// [`RuntimeReport::from_trace`] counts (`chaos` injections, `ft`
/// recoveries), and the metric that counts it (an injection under its
/// `kind` label).
const FAULTS: [(&str, &str, &str); 11] = [
    ("chaos", "drop", names::CHAOS_INJECTED),
    ("chaos", "dup", names::CHAOS_INJECTED),
    ("chaos", "reorder", names::CHAOS_INJECTED),
    ("chaos", "delay", names::CHAOS_INJECTED),
    ("chaos", "corrupt", names::CHAOS_INJECTED),
    ("chaos", "stall", names::CHAOS_INJECTED),
    ("ft", "retry", names::FT_RETRIES),
    ("ft", "nack", names::FT_NACKS),
    ("ft", "dup_ignored", names::FT_DUPLICATES_IGNORED),
    ("ft", "corrupt_detected", names::FT_CORRUPTIONS_DETECTED),
    ("ft", "skip", names::FT_DEGRADED_CHUNKS),
];

/// The link counters, in order: the `link` instant's arg and the
/// metric that counts it.
const LINK: [(&str, &str); 4] = [
    ("frames", names::FABRIC_FRAMES),
    ("bytes_framed", names::FABRIC_BYTES_FRAMED),
    ("bytes_payload", names::FABRIC_BYTES_PAYLOAD),
    ("retransmits", names::FABRIC_RETRANSMITS),
];

/// One executed task, as [`NodeRecorder::task`] takes it.
pub(crate) struct Executed<'t> {
    pub(crate) id: TaskId,
    pub(crate) task: &'t TaskNode,
    /// The pipelined iteration it belongs to.
    pub(crate) iter: u32,
    pub(crate) start: Stamp,
    /// The wire bytes a `Send` transmitted.
    pub(crate) sent: Option<u64>,
    /// The `Send` a `Recv` took its payload from.
    pub(crate) send_task: Option<TaskId>,
}

/// A node's timeline track and its queue-depth gauges.
#[derive(Clone)]
struct Timeline {
    tracer: Tracer,
    track: TrackId,
    /// Per [`Queue`].
    gauges: [Counter; 2],
}

impl Timeline {
    fn instant(&self, name: &str, category: &str, args: &[(&str, u64)]) {
        let now = self.tracer.now_ns();
        self.tracer.instant(self.track, name, category, now, args);
    }

    /// A span named after its category, from `start` for `ns`.
    fn span(&self, category: &str, start: Stamp, ns: u64, args: &[(&str, u64)]) {
        let start = start.trace_ns.unwrap_or(0);
        self.tracer
            .record_span(self.track, category, category, start, ns, args);
    }
}

/// A node's metric handles, resolved up front so that recording is
/// atomics alone. Every handle carries the `node` label; names come
/// from the shared catalogue ([`names`]), so snapshots line up with
/// trace-lowered and simulated runs.
struct Meters {
    /// Per-primitive latency, indexed by the primitive's place in
    /// [`hipress_core::Primitive::ALL`] (the order of
    /// [`names::PRIM_NS`]).
    prims: [Histogram; 8],
    local_agg: Histogram,
    bytes_wire: hipress_metrics::Counter,
    bytes_raw: hipress_metrics::Counter,
    messages: hipress_metrics::Counter,
    batch_launches: hipress_metrics::Counter,
    /// Per [`Queue`].
    q_depth: [Histogram; 2],
    /// The link's traffic as the fabric counted it, per [`LINK`] (byte
    /// counts stay zero on the channel fabric, which never frames).
    link: [hipress_metrics::Counter; 4],
    /// Resolved only for a node on the fault-tolerant link.
    faults: Option<FaultMeters>,
}

/// A node's fault accounting.
struct FaultMeters {
    /// Per [`Fault`].
    kinds: [hipress_metrics::Counter; FAULTS.len()],
    /// Straggler verdicts, indexed by [`DegradeAction`]'s tag less one.
    verdicts: [hipress_metrics::Counter; 3],
}

impl Meters {
    fn new(scope: &Scope, node: usize, faults: bool) -> Self {
        let s = scope.with(&[("node", &node.to_string())]);
        let faults = faults.then(|| FaultMeters {
            kinds: FAULTS.map(|(category, name, metric)| match category {
                "chaos" => s.counter(metric, &[("kind", name)]),
                _ => s.counter(metric, &[]),
            }),
            verdicts: [
                DegradeAction::Waited,
                DegradeAction::Skipped,
                DegradeAction::Aborted,
            ]
            .map(|a| s.counter(names::FT_STRAGGLER_VERDICTS, &[("action", &a.to_string())])),
        });
        Self {
            prims: std::array::from_fn(|i| s.histogram(names::PRIM_NS[i], &[])),
            local_agg: s.histogram(names::LOCAL_AGG_NS, &[]),
            bytes_wire: s.counter(names::BYTES_WIRE, &[]),
            bytes_raw: s.counter(names::BYTES_RAW, &[]),
            messages: s.counter(names::MESSAGES, &[]),
            batch_launches: s.counter(names::COMP_BATCH_LAUNCHES, &[]),
            q_depth: [names::Q_COMP_DEPTH, names::Q_COMMU_DEPTH].map(|n| s.histogram(n, &[])),
            link: LINK.map(|(_, metric)| s.counter(metric, &[])),
            faults,
        }
    }
}

/// One node's recorder: its optional trace timeline and gauges, metric
/// handles and progress sink, and the one place each event of its loop
/// is folded into the report and into them. Cheap to clone: the
/// fault-tolerant link records through a clone of its node's.
#[derive(Clone, Default)]
pub(crate) struct NodeRecorder<'a> {
    /// The node as progress records name it.
    node: usize,
    timeline: Option<Timeline>,
    meters: Option<Arc<Meters>>,
    progress: Option<&'a dyn ProgressSink>,
    /// Link retransmissions at the last published progress record, so
    /// each record carries its own iteration's delta.
    retransmits: u64,
}

impl<'a> NodeRecorder<'a> {
    /// Node `node`'s recorder over `tracer`, `metrics` and `progress`.
    /// A tracer gets the node's `node{node}` timeline and its
    /// `node{node}/Q_comp` and `node{node}/Q_commu` gauge tracks,
    /// registered now, in that order. Metric handles are resolved now
    /// too, the fault counters only when the node runs the
    /// fault-tolerant link (`faults`).
    pub(crate) fn new(
        tracer: Option<&Tracer>,
        metrics: Option<&Scope>,
        progress: Option<&'a dyn ProgressSink>,
        node: usize,
        faults: bool,
    ) -> Self {
        let timeline = tracer.map(|tr| Timeline {
            tracer: tr.clone(),
            track: tr.thread_track(&format!("node{node}")),
            gauges: ["Q_comp", "Q_commu"]
                .map(|q| tr.counter(tr.counter_track(&format!("node{node}/{q}")))),
        });
        Self {
            node,
            timeline,
            meters: metrics.map(|s| Arc::new(Meters::new(s, node, faults))),
            progress,
            retransmits: 0,
        }
    }

    /// The current time, for a duration the loop is about to measure.
    pub(crate) fn stamp(&self) -> Stamp {
        let trace_ns = self.timeline.as_ref().map(|t| t.tracer.now_ns());
        Stamp {
            at: Instant::now(),
            trace_ns,
        }
    }

    /// A task executed, from `e.start` until now: its primitive's busy
    /// time and, for a `Send`, the bytes it put on the wire. The span
    /// carries the very duration the report records, so a report
    /// derived from the trace matches it exactly.
    pub(crate) fn task(&self, report: &mut RuntimeReport, e: Executed<'_>) {
        let ns = e.start.elapsed_ns();
        let t = e.task;
        report.prim_mut(t.prim).record(ns);
        if let Some(wire) = e.sent {
            report.bytes_wire += wire;
            report.bytes_raw += t.bytes_raw;
        }
        if let Some(m) = &self.meters {
            m.prims[t.prim as usize].record(ns);
            if let Some(wire) = e.sent {
                m.bytes_wire.add(wire);
                m.bytes_raw.add(t.bytes_raw);
            }
        }
        if let Some(tl) = &self.timeline {
            let mut args = vec![
                ("grad", u64::from(t.chunk.grad)),
                ("part", u64::from(t.chunk.part)),
                ("task", u64::from(e.id.0)),
                ("iter", u64::from(e.iter)),
            ];
            if let Some(wire) = e.sent {
                args.push(("bytes_wire", wire));
                args.push(("bytes_raw", t.bytes_raw));
            }
            if let Some(s) = e.send_task {
                // The matching Send task: merged multi-process traces
                // pair Send→Recv spans across ranks on this link for
                // the clock-monotonicity check.
                args.push(("send_task", u64::from(s.0)));
            }
            tl.span(t.prim.name(), e.start, ns, &args);
        }
    }

    /// A `Source` summed `replicas` local replicas, from `start` until
    /// now (a span nested inside the source's own).
    pub(crate) fn local_agg(&self, report: &mut RuntimeReport, start: Stamp, replicas: usize) {
        let ns = start.elapsed_ns();
        report.local_agg_ns += ns;
        if let Some(m) = &self.meters {
            m.local_agg.record(ns);
        }
        if let Some(tl) = &self.timeline {
            tl.span("local_agg", start, ns, &[("replicas", replicas as u64)]);
        }
    }

    /// Remote task `task`'s completion was delivered, carrying
    /// `wire_bytes` of payload when it was a `Send`.
    pub(crate) fn message(
        &self,
        report: &mut RuntimeReport,
        task: TaskId,
        wire_bytes: Option<u64>,
    ) {
        report.messages += 1;
        if let Some(m) = &self.meters {
            m.messages.inc();
        }
        if let Some(tl) = &self.timeline {
            let task = ("task", u64::from(task.0));
            match wire_bytes {
                Some(b) => tl.instant("msg", "fabric", &[task, ("bytes", b)]),
                None => tl.instant("msg", "fabric", &[task]),
            }
        }
    }

    /// A task entered queue `q` of one admitted iteration, which is now
    /// `depth` long. The gauge is the node's, so it reads the total
    /// depth across the window.
    pub(crate) fn queued(&self, q: Queue, depth: usize) {
        if let Some(tl) = &self.timeline {
            tl.gauges[q as usize].add(1);
        }
        if let Some(m) = &self.meters {
            m.q_depth[q as usize].record(depth as u64);
        }
    }

    /// A task left queue `q` to run.
    pub(crate) fn dequeued(&self, q: Queue) {
        if let Some(tl) = &self.timeline {
            tl.gauges[q as usize].add(-1);
        }
    }

    /// One batched launch of `size` small encodes. All but the one that
    /// initiated it left `Q_comp` without a pop of their own; the gauge
    /// takes them in one step.
    pub(crate) fn batch(&self, report: &mut RuntimeReport, size: usize) {
        report.comp_batch_launches += 1;
        if let Some(m) = &self.meters {
            m.batch_launches.inc();
        }
        if let Some(tl) = &self.timeline {
            tl.gauges[Queue::Comp as usize].add(-(size as i64 - 1));
            tl.instant("batch", "batch", &[("size", size as u64)]);
        }
    }

    /// Iteration `iter`, admitted at `admitted`, retired with its own
    /// measurements in `retired`: its span goes into `report` and the
    /// trace, its record to the progress feed (with the retransmissions
    /// `counters` shows since the last one), and then `retired` is
    /// folded into `report`.
    pub(crate) fn retire(
        &mut self,
        report: &mut RuntimeReport,
        iter: u32,
        admitted: Stamp,
        retired: RuntimeReport,
        pcfg: &PipelineConfig,
        counters: impl FnOnce() -> LinkCounters,
    ) {
        if self.progress.is_some() {
            let ms = telemetry_slowdown_ms();
            if ms > 0 && iter >= pcfg.iterations / 2 {
                // Injected before the span is measured, so the
                // stretch lands inside `span_ns` and the watchdog
                // sees it as a genuine iteration slowdown.
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        let span_ns = admitted.elapsed_ns();
        report.iter_span_ns_total += span_ns;
        if let Some(tl) = &self.timeline {
            tl.span("iter_span", admitted, span_ns, &[("iter", u64::from(iter))]);
        }
        if let Some(sink) = self.progress {
            let (r, retransmits) = (&retired, counters().retransmits);
            sink.publish(IterRecord {
                node: self.node as u32,
                iter,
                ts_ns: 0, // stamped by the hub on publication
                span_ns,
                comp_ns: r.source.busy_ns
                    + r.encode.busy_ns
                    + r.decode.busy_ns
                    + r.merge.busy_ns
                    + r.update.busy_ns
                    + r.barrier.busy_ns
                    + r.local_agg_ns,
                commu_ns: r.send.busy_ns + r.recv.busy_ns,
                bytes_wire: r.bytes_wire,
                messages: r.messages,
                retransmits: retransmits - self.retransmits,
                faults: r.faults.retries
                    + r.faults.nacks
                    + r.faults.duplicates_ignored
                    + r.faults.corruptions_detected
                    + r.faults.degraded_chunks,
                window: pcfg.window,
                epoch: 0, // stamped by the elastic sink, if any
            });
            self.retransmits = retransmits;
        }
        report.absorb(&retired);
    }

    /// The link's counters at the end of the run: one `link` instant
    /// per node carries them, and trace-derived reports sum them back.
    pub(crate) fn link(&self, report: &mut RuntimeReport, c: LinkCounters) {
        report.fabric_frames += c.frames;
        report.fabric_bytes_framed += c.bytes_framed;
        report.fabric_bytes_payload += c.bytes_payload;
        report.fabric_retransmits += c.retransmits;
        let values = [c.frames, c.bytes_framed, c.bytes_payload, c.retransmits];
        if let Some(tl) = &self.timeline {
            let args: [(&str, u64); 4] = std::array::from_fn(|i| (LINK[i].0, values[i]));
            tl.instant("link", "link", &args);
        }
        if let Some(m) = &self.meters {
            for (counter, v) in m.link.iter().zip(values) {
                counter.add(v);
            }
        }
    }

    fn fault_meters(&self) -> Option<&FaultMeters> {
        self.meters.as_ref()?.faults.as_ref()
    }

    /// One fault event, counted into `faults`.
    pub(crate) fn fault(&self, faults: &mut FaultReport, f: Fault) {
        let (category, name, _) = FAULTS[f as usize];
        faults.count(name);
        if let Some(m) = self.fault_meters() {
            m.kinds[f as usize].inc();
        }
        if let Some(tl) = &self.timeline {
            tl.instant(name, category, &[]);
        }
    }

    /// A straggler verdict, kept in `faults`.
    pub(crate) fn verdict(&self, faults: &mut FaultReport, v: StragglerVerdict) {
        if let Some(m) = self.fault_meters() {
            // Tags start at 1 (`Waited`); the counters at 0.
            m.verdicts[v.action as usize - 1].inc();
        }
        if let Some(tl) = &self.timeline {
            let args = [
                ("node", v.node as u64),
                ("peer", v.peer as u64),
                ("waited_ns", v.waited_ns),
            ];
            tl.instant(&v.action.to_string(), "straggler", &args);
        }
        faults.verdicts.push(v);
    }
}

/// One recorder per node of an in-process run of `nodes` nodes, with
/// the trace's tracks registered in their layout order: `engine`
/// first, then each node's timeline and gauges in node order.
pub(crate) fn node_recorders<'a>(
    instruments: &Instruments<'a>,
    nodes: usize,
    faults: bool,
) -> Vec<NodeRecorder<'a>> {
    if let Some(tr) = instruments.tracer {
        tr.thread_track("engine");
    }
    let progress = instruments.progress.map(|t| t as &dyn ProgressSink);
    (0..nodes)
        .map(|n| NodeRecorder::new(instruments.tracer, instruments.metrics, progress, n, faults))
        .collect()
}

/// Records the run-wall span on the engine track (carrying the same
/// wall measurement the report stores, keeping trace-derived reports
/// exact).
pub(crate) fn record_run_span(
    tracer: Option<&Tracer>,
    run_start_ns: Option<u64>,
    wall_ns: u64,
    nodes: usize,
    iterations: u64,
    pipeline_window: u64,
    epochs: u64,
) {
    if let Some(tr) = tracer {
        let engine = tr.thread_track("engine");
        let mut args = vec![
            ("nodes", nodes as u64),
            ("iterations", iterations),
            ("window", pipeline_window),
        ];
        if epochs > 0 {
            // Elastic runs only; fixed-membership runs carry no epoch
            // arg so their traces stay byte-identical to before.
            args.push(("epochs", epochs));
        }
        tr.record_span(
            engine,
            "run",
            "run",
            run_start_ns.unwrap_or(0),
            wall_ns,
            &args,
        );
    }
}

/// Records the run-level metric gauges derived from the assembled
/// report, at the scope's own labels (no `node`): wall time,
/// throughput in raw gradient bytes synchronized per second, and the
/// wire-volume reduction factor.
pub(crate) fn record_run_metrics(scope: Option<&Scope>, report: &RuntimeReport) {
    let Some(scope) = scope else {
        return;
    };
    scope.gauge(names::WALL_NS, &[]).set(report.wall_ns as f64);
    scope.gauge(names::NODES, &[]).set(report.nodes as f64);
    if report.wall_ns > 0 {
        scope
            .gauge(names::THROUGHPUT, &[])
            .set(report.bytes_raw as f64 / (report.wall_ns as f64 / 1e9));
    }
    scope
        .gauge(names::COMPRESSION_SAVINGS, &[])
        .set(report.compression_savings());
    scope
        .timeseries(names::ITERATION_NS, &[])
        .push(report.wall_ns as f64);
    if report.fabric_frames > 0 {
        scope
            .counter(names::FABRIC_FRAMES, &[])
            .add(report.fabric_frames);
        scope
            .counter(names::FABRIC_BYTES_FRAMED, &[])
            .add(report.fabric_bytes_framed);
        scope
            .counter(names::FABRIC_BYTES_PAYLOAD, &[])
            .add(report.fabric_bytes_payload);
        scope
            .counter(names::FABRIC_RETRANSMITS, &[])
            .add(report.fabric_retransmits);
    }
    if report.iterations > 1 {
        scope
            .gauge(names::PIPELINE_OVERLAP, &[])
            .set(report.pipeline_overlap());
    }
}

/// Test-only injected slowdown, for exercising the SLO watchdog end to
/// end: `HIPRESS_TELEMETRY_SLOWDOWN_MS` stretches every retired
/// iteration in the second half of a run by this many milliseconds,
/// which the latency-regression detector must flag. Zero (the default,
/// and any unparsable value) is free; the knob is only consulted when a
/// progress sink is attached, so ordinary runs never read it.
fn telemetry_slowdown_ms() -> u64 {
    static KNOB: OnceLock<u64> = OnceLock::new();
    *KNOB.get_or_init(|| {
        std::env::var("HIPRESS_TELEMETRY_SLOWDOWN_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_core::Primitive;

    /// [`Meters::prims`] is indexed by the primitive's discriminant.
    #[test]
    fn primitive_histograms_follow_the_name_catalogue() {
        for (i, p) in Primitive::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(names::PRIM_NS[i], format!("{}_ns", p.name()));
        }
    }
}
