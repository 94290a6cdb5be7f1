//! Wall-clock execution reports for the thread runtime.
//!
//! Unlike [`hipress_core::ExecStats`] — which reports *simulated*
//! nanoseconds derived from cost models — everything in a
//! [`RuntimeReport`] is measured with `std::time::Instant` on real
//! hardware: how long the eight primitives actually took, how many
//! bytes actually crossed the channel fabric, and how that compares
//! to an uncompressed run.
//!
//! When tracing is enabled the engine records every one of these
//! measurements into a [`hipress_trace::Trace`] as well, and
//! [`RuntimeReport::from_trace`] re-derives the full report from the
//! trace alone. The two paths share each task's single measured
//! duration, so the derived report is *equal* to the accumulated one —
//! the cross-check that keeps the trace honest.

use hipress_core::Primitive;
use hipress_trace::Trace;
use hipress_util::codec::Json;
use hipress_util::record;
use hipress_util::table::{Align, Table};
use hipress_util::units::fmt_duration_ns;
use std::fmt;

record! {
    /// Count and cumulative busy time for one primitive kind.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PrimStat [absorb, json] {
        /// Number of task executions.
        pub count: u64 => sum,
        /// Total wall-clock busy nanoseconds across all nodes.
        pub busy_ns: u64 => sum,
    }
}

impl PrimStat {
    /// Records one execution of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.busy_ns += ns;
    }
}

/// The primitive kinds in report/display order, paired with the span
/// category names the tracing engine uses for them.
const PRIMS: [(Primitive, &str); 8] = [
    (Primitive::Source, "source"),
    (Primitive::Encode, "encode"),
    (Primitive::Decode, "decode"),
    (Primitive::Merge, "merge"),
    (Primitive::Send, "send"),
    (Primitive::Recv, "recv"),
    (Primitive::Update, "update"),
    (Primitive::Barrier, "barrier"),
];

record! {
    /// What a degradation policy did about one diagnosed straggler.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DegradeAction ["degrade action"] {
        /// The policy kept waiting (the verdict is informational).
        Waited = 1,
        /// The peer's outstanding contributions were skipped and the
        /// aggregates rescaled (bounded-staleness partial aggregation).
        Skipped = 2,
        /// The run was aborted with a structured straggler error.
        Aborted = 3,
    }
}

impl fmt::Display for DegradeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeAction::Waited => "waited",
            DegradeAction::Skipped => "skipped",
            DegradeAction::Aborted => "aborted",
        })
    }
}

/// Its display name as a JSON string.
impl Json for DegradeAction {
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!("\"{self}\""));
    }
}

record! {
    /// One straggler diagnosis: `node` waited `waited_ns` on `peer`
    /// before the policy acted.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StragglerVerdict [json] {
        /// The node that diagnosed the straggler.
        pub node: usize,
        /// The peer diagnosed as straggling.
        pub peer: usize,
        /// How long `node` had been waiting when the detector tripped.
        pub waited_ns: u64,
        /// What the degradation policy did.
        pub action: DegradeAction,
    }
}

record! {
    /// Fault-injection and recovery accounting for one run: what the
    /// chaos layer injected, what the protocol detected and repaired, and
    /// what the degradation policy decided. All-zero (and displayed as
    /// nothing) for trusted-fabric runs.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultReport [absorb, json] {
        /// Messages the fault plan silently dropped.
        pub injected_drops: u64 => sum,
        /// Messages the fault plan delivered twice.
        pub injected_dups: u64 => sum,
        /// Messages the fault plan held back for reordering.
        pub injected_reorders: u64 => sum,
        /// Messages the fault plan delayed.
        pub injected_delays: u64 => sum,
        /// Payloads the fault plan flipped a bit in.
        pub injected_corruptions: u64 => sum,
        /// Node stalls the fault plan triggered.
        pub injected_stalls: u64 => sum,
        /// Timer-driven retransmissions (dropped data or dropped acks).
        pub retries: u64 => sum,
        /// Nacks sent for corrupt arrivals (each triggers a fast
        /// retransmission at the sender).
        pub nacks: u64 => sum,
        /// Intact arrivals discarded by receiver-side dedup (injected
        /// duplicates, redundant retransmissions, late post-skip data).
        pub duplicates_ignored: u64 => sum,
        /// Corrupt arrivals caught by checksum verification. Every
        /// injected corruption that reaches a receiver lands here.
        pub corruptions_detected: u64 => sum,
        /// Chunk contributions skipped by the degradation policy.
        pub degraded_chunks: u64 => sum,
        /// Per-node straggler diagnoses and what was done about them.
        pub verdicts: Vec<StragglerVerdict> => append,
    }
}

impl FaultReport {
    /// True when nothing was injected, detected, or degraded — the
    /// report of every trusted-fabric run.
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Counts one fault event by its trace instant name (the `chaos`
    /// injections and `ft` recoveries of a fault-tolerant run); other
    /// names count nothing.
    pub(crate) fn count(&mut self, event: &str) {
        let n = match event {
            "drop" => &mut self.injected_drops,
            "dup" => &mut self.injected_dups,
            "reorder" => &mut self.injected_reorders,
            "delay" => &mut self.injected_delays,
            "corrupt" => &mut self.injected_corruptions,
            "stall" => &mut self.injected_stalls,
            "retry" => &mut self.retries,
            "nack" => &mut self.nacks,
            "dup_ignored" => &mut self.duplicates_ignored,
            "corrupt_detected" => &mut self.corruptions_detected,
            "skip" => &mut self.degraded_chunks,
            _ => return,
        };
        *n += 1;
    }

    /// Total faults the plan injected on this run's links and nodes.
    pub fn total_injected(&self) -> u64 {
        self.injected_drops
            + self.injected_dups
            + self.injected_reorders
            + self.injected_delays
            + self.injected_corruptions
            + self.injected_stalls
    }
}

record! {
    /// One entry in an elastic run's membership timeline: epoch `epoch`
    /// began at global iteration `from_iter` over exactly `members`.
    /// Epoch 0 (the initial membership) is always present on elastic
    /// runs; every later entry is a bump — an eviction or a re-admission.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct EpochRecord [json] {
        /// The membership epoch number (0 = initial).
        pub epoch: u64,
        /// The first global iteration executed under this epoch.
        pub from_iter: u64,
        /// The global ranks that were members during this epoch,
        /// ascending.
        pub members: Vec<u32>,
    }
}

record! {
    /// Measured wall-clock statistics for one runtime execution.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RuntimeReport [absorb, json] {
        /// Number of node threads that executed the graph.
        pub nodes: usize => keep,
        /// End-to-end wall-clock time (spawn to last join), ns.
        pub wall_ns: u64 => keep,
        /// Per-primitive execution statistics, summed across nodes.
        pub source: PrimStat => absorb,
        /// Encode (compression kernel) statistics.
        pub encode: PrimStat => absorb,
        /// Decode (decompression kernel) statistics.
        pub decode: PrimStat => absorb,
        /// Merge (aggregation) statistics.
        pub merge: PrimStat => absorb,
        /// Send statistics (payload extraction + channel push).
        pub send: PrimStat => absorb,
        /// Recv statistics (payload hand-off).
        pub recv: PrimStat => absorb,
        /// Update (parameter install) statistics.
        pub update: PrimStat => absorb,
        /// Barrier statistics (dependency joins; near-zero cost but
        /// counted in their own bucket so plan structure is visible).
        pub barrier: PrimStat => absorb,
        /// Time spent summing local replica gradients (local aggregation,
        /// §3.1); zero when every node holds a single replica.
        pub local_agg_ns: u64 => sum,
        /// Bytes actually moved through the channel fabric.
        pub bytes_wire: u64 => sum,
        /// Bytes the same sends would have moved uncompressed.
        pub bytes_raw: u64 => sum,
        /// Messages delivered between node threads.
        pub messages: u64 => sum,
        /// Batched codec launches performed (batch compression, §3.2).
        pub comp_batch_launches: u64 => sum,
        /// Per-node total busy ns (all primitives).
        pub per_node_busy_ns: Vec<u64> => keep,
        /// Fault injection and recovery accounting; all-zero on the fast
        /// path (no plan, no envelopes, nothing to report).
        pub faults: FaultReport => absorb,
        /// Data frames the transport fabric sent. Zero when the run moved
        /// messages by value (the in-process channel fabric).
        pub fabric_frames: u64 => sum,
        /// Bytes of encoded frames the fabric sent, headers included.
        pub fabric_bytes_framed: u64 => sum,
        /// Bytes of application payload inside those frames (the framing
        /// overhead is the difference to `fabric_bytes_framed`).
        pub fabric_bytes_payload: u64 => sum,
        /// Frame retransmissions the fabric's reliability layer performed.
        pub fabric_retransmits: u64 => sum,
        /// Synchronization iterations this run executed.
        pub iterations: u64 => keep,
        /// Bound on concurrently in-flight iterations (1 = serial).
        pub pipeline_window: u64 => keep,
        /// Summed per-node spans from each node's first task of any
        /// iteration to its last, ns. With pipelining, overlapping
        /// iterations make this exceed `nodes × wall_ns` — see
        /// [`RuntimeReport::pipeline_overlap`].
        pub iter_span_ns_total: u64 => sum,
        /// Membership timeline of an evict-on-loss process run
        /// (`ProcessConfig::elastic`), one record per epoch (coordinator
        /// owned, like `nodes` and `wall_ns`; `absorb` ignores it). Empty
        /// on every other run, fail-on-loss process runs included;
        /// `membership.len() - 1` is the number of epoch bumps the run
        /// survived.
        pub membership: Vec<EpochRecord> => keep,
        /// Global ranks evicted by an epoch bump, in eviction order
        /// (coordinator owned). A rank that died, rejoined, and died
        /// again appears twice.
        pub evicted: Vec<u32> => keep,
    }
}

impl RuntimeReport {
    /// The stat bucket for a primitive kind.
    pub fn prim(&self, p: Primitive) -> &PrimStat {
        match p {
            Primitive::Source => &self.source,
            Primitive::Encode => &self.encode,
            Primitive::Decode => &self.decode,
            Primitive::Merge => &self.merge,
            Primitive::Send => &self.send,
            Primitive::Recv => &self.recv,
            Primitive::Update => &self.update,
            Primitive::Barrier => &self.barrier,
        }
    }

    /// Mutable access to the stat bucket for a primitive kind.
    pub(crate) fn prim_mut(&mut self, p: Primitive) -> &mut PrimStat {
        match p {
            Primitive::Source => &mut self.source,
            Primitive::Encode => &mut self.encode,
            Primitive::Decode => &mut self.decode,
            Primitive::Merge => &mut self.merge,
            Primitive::Send => &mut self.send,
            Primitive::Recv => &mut self.recv,
            Primitive::Update => &mut self.update,
            Primitive::Barrier => &mut self.barrier,
        }
    }

    /// Re-derives a full report from a trace recorded by the engine.
    ///
    /// Every quantity maps to trace structure: primitive buckets from
    /// span categories, wire volume from `send` span arguments,
    /// messages from `fabric` instants, batched launches from `batch`
    /// instants, wall time and node count from the `run` span, and
    /// per-node busy time from each `node{i}` track's primitive spans.
    /// Because the engine feeds each task's single measured duration
    /// to both the counters and the trace, the derived report equals
    /// the accumulated one exactly.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut r = RuntimeReport::default();
        for (p, cat) in PRIMS {
            let s = r.prim_mut(p);
            for e in trace.events_of(cat) {
                s.record(e.dur_ns);
            }
        }
        for e in trace.events_of("local_agg") {
            r.local_agg_ns += e.dur_ns;
        }
        for e in trace.events_of("send") {
            r.bytes_wire += e.arg("bytes_wire").unwrap_or(0);
            r.bytes_raw += e.arg("bytes_raw").unwrap_or(0);
        }
        r.messages = trace.events_of("fabric").count() as u64;
        r.comp_batch_launches = trace.events_of("batch").count() as u64;
        for e in trace.events_of("link") {
            r.fabric_frames += e.arg("frames").unwrap_or(0);
            r.fabric_bytes_framed += e.arg("bytes_framed").unwrap_or(0);
            r.fabric_bytes_payload += e.arg("bytes_payload").unwrap_or(0);
            r.fabric_retransmits += e.arg("retransmits").unwrap_or(0);
        }
        for e in trace.events_of("iter_span") {
            r.iter_span_ns_total += e.dur_ns;
        }
        for e in trace.events_of("chaos").chain(trace.events_of("ft")) {
            r.faults.count(&e.name);
        }
        for e in trace.events_of("straggler") {
            let action = match e.name.as_str() {
                "waited" => DegradeAction::Waited,
                "skipped" => DegradeAction::Skipped,
                "aborted" => DegradeAction::Aborted,
                _ => continue,
            };
            r.faults.verdicts.push(StragglerVerdict {
                node: e.arg("node").unwrap_or(0) as usize,
                peer: e.arg("peer").unwrap_or(0) as usize,
                waited_ns: e.arg("waited_ns").unwrap_or(0),
                action,
            });
        }
        for e in trace.events_of("membership") {
            match e.name.as_str() {
                "epoch" => {
                    // Member sets travel as a rank bitmask (one u64
                    // arg), which caps trace-carried membership at 64
                    // ranks — far beyond the loopback mesh's scale.
                    let mask = e.arg("members_mask").unwrap_or(0);
                    r.membership.push(EpochRecord {
                        epoch: e.arg("epoch").unwrap_or(0),
                        from_iter: e.arg("from_iter").unwrap_or(0),
                        members: (0..64u32).filter(|b| (mask >> b) & 1 == 1).collect(),
                    });
                }
                "evict" => r.evicted.push(e.arg("rank").unwrap_or(0) as u32),
                _ => {}
            }
        }
        if let Some(run) = trace.events_of("run").next() {
            r.wall_ns = run.dur_ns;
            r.nodes = run.arg("nodes").unwrap_or(0) as usize;
            r.iterations = run.arg("iterations").unwrap_or(0);
            r.pipeline_window = run.arg("window").unwrap_or(0);
        }
        if r.nodes == 0 {
            // No run span (foreign trace): count node tracks instead.
            r.nodes = trace
                .tracks()
                .iter()
                .filter(|t| t.name.starts_with("node") && !t.name.contains('/'))
                .count();
        }
        r.per_node_busy_ns = (0..r.nodes)
            .map(|node| {
                trace
                    .find_track(&format!("node{node}"))
                    .map(|id| {
                        trace
                            .track(id)
                            .events
                            .iter()
                            .filter(|e| PRIMS.iter().any(|(_, c)| e.category == *c))
                            .map(|e| e.dur_ns)
                            .sum()
                    })
                    .unwrap_or(0)
            })
            .collect();
        r
    }

    /// Renders the full report as one JSON object — the payload the
    /// live telemetry server's `/report.json` endpoint serves. Its
    /// fields are the record's, in declaration order, so a field added
    /// to the declaration shows up here with no further edit. Two
    /// derived ratios (`compression_savings`, `pipeline_overlap`)
    /// ride along so scrapers don't have to re-implement them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write_json(&mut out);
        // Reopen the object for the derived ratios.
        out.pop();
        out.push_str(&format!(
            ",\"compression_savings\":{:.6},\"pipeline_overlap\":{:.6}}}",
            self.compression_savings(),
            self.pipeline_overlap()
        ));
        out
    }

    /// Wire-volume reduction factor: raw bytes divided by bytes
    /// actually moved (1.0 when nothing was compressed).
    pub fn compression_savings(&self) -> f64 {
        if self.bytes_wire == 0 {
            return 1.0;
        }
        self.bytes_raw as f64 / self.bytes_wire as f64
    }

    /// Wall-clock speedup of this run relative to `baseline`
    /// (> 1.0 means this run was faster).
    pub fn speedup_vs(&self, baseline: &RuntimeReport) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        baseline.wall_ns as f64 / self.wall_ns as f64
    }

    /// Total busy time across primitives and nodes.
    pub fn total_busy_ns(&self) -> u64 {
        PRIMS.iter().map(|&(p, _)| self.prim(p).busy_ns).sum()
    }

    /// How much iteration time the pipeline hid, in `[0, 1)`: the
    /// fraction by which the summed per-node iteration spans exceed
    /// the elapsed node-time `nodes × wall_ns`. Serial execution
    /// (window 1, or no pipelining at all) yields ~0 because
    /// iteration spans tile the wall clock; an overlapping window
    /// stacks spans on top of each other and pushes the ratio up.
    pub fn pipeline_overlap(&self) -> f64 {
        if self.iter_span_ns_total == 0 {
            return 0.0;
        }
        let elapsed = self.nodes as f64 * self.wall_ns as f64;
        (1.0 - elapsed / self.iter_span_ns_total as f64).max(0.0)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "RuntimeReport: {} node threads, wall {}",
            self.nodes,
            fmt_duration_ns(self.wall_ns)
        )?;
        let mut table = Table::new(&[
            ("primitive", Align::Left),
            ("count", Align::Right),
            ("busy", Align::Right),
        ]);
        for (p, name) in PRIMS {
            let s = self.prim(p);
            if s.count > 0 {
                table.row(vec![
                    name.to_string(),
                    s.count.to_string(),
                    fmt_duration_ns(s.busy_ns),
                ]);
            }
        }
        f.write_str(&table.render_indented("  "))?;
        if self.local_agg_ns > 0 {
            writeln!(
                f,
                "  local aggregation: {}",
                fmt_duration_ns(self.local_agg_ns)
            )?;
        }
        writeln!(
            f,
            "  wire: {} moved ({} raw equivalent, {:.1}x reduction), {} messages",
            fmt_bytes(self.bytes_wire),
            fmt_bytes(self.bytes_raw),
            self.compression_savings(),
            self.messages
        )?;
        if self.comp_batch_launches > 0 {
            writeln!(f, "  batched codec launches: {}", self.comp_batch_launches)?;
        }
        if self.fabric_frames > 0 {
            writeln!(f, "  fabric:")?;
            let mut table = Table::new(&[("counter", Align::Left), ("value", Align::Right)]);
            table.row(vec!["frames sent".into(), self.fabric_frames.to_string()]);
            if self.fabric_bytes_framed > 0 {
                table.row(vec![
                    "bytes framed".into(),
                    fmt_bytes(self.fabric_bytes_framed),
                ]);
                table.row(vec![
                    "bytes payload".into(),
                    fmt_bytes(self.fabric_bytes_payload),
                ]);
            }
            if self.fabric_retransmits > 0 {
                table.row(vec![
                    "retransmissions".into(),
                    self.fabric_retransmits.to_string(),
                ]);
            }
            f.write_str(&table.render_indented("    "))?;
        }
        if self.iterations > 1 {
            writeln!(
                f,
                "  pipeline: {} iterations, window {}, overlap {:.0}%",
                self.iterations,
                self.pipeline_window,
                self.pipeline_overlap() * 100.0
            )?;
        }
        if !self.membership.is_empty() {
            writeln!(
                f,
                "  membership: {} epoch(s), {} eviction(s){}",
                self.membership.len(),
                self.evicted.len(),
                if self.evicted.is_empty() {
                    String::new()
                } else {
                    format!(
                        " (rank(s) {})",
                        self.evicted
                            .iter()
                            .map(u32::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            )?;
            let mut table = Table::new(&[
                ("epoch", Align::Right),
                ("from iter", Align::Right),
                ("members", Align::Left),
            ]);
            for m in &self.membership {
                table.row(vec![
                    m.epoch.to_string(),
                    m.from_iter.to_string(),
                    m.members
                        .iter()
                        .map(u32::to_string)
                        .collect::<Vec<_>>()
                        .join(" "),
                ]);
            }
            f.write_str(&table.render_indented("    "))?;
        }
        if !self.faults.is_empty() {
            let fr = &self.faults;
            writeln!(f, "  faults:")?;
            let mut table = Table::new(&[("event", Align::Left), ("count", Align::Right)]);
            for (name, count) in [
                ("injected drops", fr.injected_drops),
                ("injected duplicates", fr.injected_dups),
                ("injected reorders", fr.injected_reorders),
                ("injected delays", fr.injected_delays),
                ("injected corruptions", fr.injected_corruptions),
                ("injected stalls", fr.injected_stalls),
                ("retransmissions", fr.retries),
                ("nacks sent", fr.nacks),
                ("duplicates ignored", fr.duplicates_ignored),
                ("corruptions detected", fr.corruptions_detected),
                ("chunks degraded", fr.degraded_chunks),
            ] {
                if count > 0 {
                    table.row(vec![name.to_string(), count.to_string()]);
                }
            }
            f.write_str(&table.render_indented("    "))?;
            if !fr.verdicts.is_empty() {
                let mut table = Table::new(&[
                    ("node", Align::Right),
                    ("straggler", Align::Right),
                    ("waited", Align::Right),
                    ("action", Align::Left),
                ]);
                for v in &fr.verdicts {
                    table.row(vec![
                        v.node.to_string(),
                        v.peer.to_string(),
                        fmt_duration_ns(v.waited_ns),
                        v.action.to_string(),
                    ]);
                }
                f.write_str(&table.render_indented("    "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = RuntimeReport::default();
        let mut b = RuntimeReport::default();
        b.encode.record(100);
        b.encode.record(50);
        b.barrier.record(5);
        b.bytes_wire = 10;
        b.bytes_raw = 100;
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.encode.count, 4);
        assert_eq!(a.encode.busy_ns, 300);
        assert_eq!(a.barrier.count, 2);
        assert_eq!(a.bytes_wire, 20);
        assert!((a.compression_savings() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_has_its_own_bucket() {
        let mut r = RuntimeReport::default();
        r.prim_mut(Primitive::Barrier).record(40);
        assert_eq!(r.barrier.count, 1);
        assert_eq!(r.source.count, 0, "barriers must not pollute source");
        assert_eq!(r.prim(Primitive::Barrier).busy_ns, 40);
        assert_eq!(r.total_busy_ns(), 40);
    }

    #[test]
    fn speedup_ratio() {
        let fast = RuntimeReport {
            wall_ns: 100,
            ..Default::default()
        };
        let slow = RuntimeReport {
            wall_ns: 300,
            ..Default::default()
        };
        assert!((fast.speedup_vs(&slow) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_edge_cases() {
        let zero = RuntimeReport::default();
        let real = RuntimeReport {
            wall_ns: 100,
            ..Default::default()
        };
        // A zero-wall report defines its speedup as 1.0 (no division).
        assert!((zero.speedup_vs(&real) - 1.0).abs() < 1e-9);
        assert!((zero.speedup_vs(&zero) - 1.0).abs() < 1e-9);
        // A zero-wall baseline yields 0.0: "infinitely slower" is
        // reported as no speedup at all rather than infinity.
        assert!((real.speedup_vs(&zero) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders() {
        let mut r = RuntimeReport {
            nodes: 4,
            wall_ns: 1_500_000,
            ..Default::default()
        };
        r.encode.record(10_000);
        r.barrier.record(100);
        r.bytes_wire = 4096;
        r.bytes_raw = 65536;
        let s = r.to_string();
        assert!(s.contains("4 node threads"));
        assert!(s.contains("wall 1.50ms"));
        assert!(s.contains("encode"));
        assert!(s.contains("barrier"));
        for line in s.lines() {
            assert_eq!(line, line.trim_end(), "trailing whitespace in {line:?}");
        }
    }

    #[test]
    fn from_trace_rebuilds_every_field() {
        let mut t = Trace::new("casync-rt");
        let engine = t.thread_track("engine");
        let n0 = t.thread_track("node0");
        let n1 = t.thread_track("node1");
        t.push_span(
            engine,
            "run",
            "run",
            0,
            10_000,
            &[("nodes", 2), ("iterations", 3), ("window", 2)],
        );
        t.push_span(n0, "source", "source", 10, 100, &[("grad", 0), ("part", 0)]);
        t.push_span(n0, "local_agg", "local_agg", 20, 30, &[]);
        t.push_span(
            n0,
            "send",
            "send",
            200,
            50,
            &[("bytes_wire", 64), ("bytes_raw", 512)],
        );
        t.push_span(n1, "recv", "recv", 300, 5, &[]);
        t.push_span(n1, "barrier", "barrier", 400, 2, &[]);
        t.push_instant(n1, "msg", "fabric", 250, &[("bytes", 64)]);
        t.push_instant(n0, "batch", "batch", 50, &[("size", 3)]);
        t.push_instant(
            n0,
            "link",
            "link",
            9_000,
            &[
                ("frames", 6),
                ("bytes_framed", 900),
                ("bytes_payload", 640),
                ("retransmits", 1),
            ],
        );
        t.push_instant(
            n1,
            "link",
            "link",
            9_100,
            &[
                ("frames", 4),
                ("bytes_framed", 500),
                ("bytes_payload", 320),
                ("retransmits", 0),
            ],
        );
        t.push_span(n0, "iter_span", "iter_span", 10, 4_000, &[("iter", 0)]);
        t.push_span(n0, "iter_span", "iter_span", 3_000, 2_500, &[("iter", 1)]);
        let mem = t.thread_track("membership");
        t.push_instant(
            mem,
            "epoch",
            "membership",
            5,
            &[("epoch", 0), ("from_iter", 0), ("members_mask", 0b11)],
        );
        t.push_instant(mem, "evict", "membership", 4_500, &[("rank", 1)]);
        t.push_instant(
            mem,
            "epoch",
            "membership",
            4_600,
            &[("epoch", 1), ("from_iter", 2), ("members_mask", 0b01)],
        );
        let r = RuntimeReport::from_trace(&t);
        assert_eq!(r.nodes, 2);
        assert_eq!(r.wall_ns, 10_000);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.pipeline_window, 2);
        assert_eq!(r.fabric_frames, 10);
        assert_eq!(r.fabric_bytes_framed, 1_400);
        assert_eq!(r.fabric_bytes_payload, 960);
        assert_eq!(r.fabric_retransmits, 1);
        assert_eq!(r.iter_span_ns_total, 6_500);
        assert_eq!(
            r.source,
            PrimStat {
                count: 1,
                busy_ns: 100
            }
        );
        assert_eq!(
            r.send,
            PrimStat {
                count: 1,
                busy_ns: 50
            }
        );
        assert_eq!(
            r.recv,
            PrimStat {
                count: 1,
                busy_ns: 5
            }
        );
        assert_eq!(
            r.barrier,
            PrimStat {
                count: 1,
                busy_ns: 2
            }
        );
        assert_eq!(r.local_agg_ns, 30);
        assert_eq!(r.bytes_wire, 64);
        assert_eq!(r.bytes_raw, 512);
        assert_eq!(r.messages, 1);
        assert_eq!(r.comp_batch_launches, 1);
        // local_agg is nested inside source and excluded from busy.
        assert_eq!(r.per_node_busy_ns, vec![150, 7]);
        assert!(r.faults.is_empty(), "no fault events, no fault report");
        assert_eq!(
            r.membership,
            vec![
                EpochRecord {
                    epoch: 0,
                    from_iter: 0,
                    members: vec![0, 1],
                },
                EpochRecord {
                    epoch: 1,
                    from_iter: 2,
                    members: vec![0],
                },
            ]
        );
        assert_eq!(r.evicted, vec![1]);
    }

    /// Watchdog alerts are exported into the trace as instants on a
    /// dedicated `watchdog` track under the `alert` category. That
    /// category is deliberately foreign to `from_trace`: re-deriving a
    /// report from an alert-bearing trace must yield the same report
    /// as from the alert-free trace, or the CLI's trace→report parity
    /// check would fail whenever a run latched an alert (including the
    /// `membership_change` alert every epoch bump fires).
    #[test]
    fn alert_instants_stay_foreign_to_from_trace() {
        let mut clean = Trace::new("casync-rt");
        let engine = clean.thread_track("engine");
        clean.push_span(
            engine,
            "run",
            "run",
            0,
            5_000,
            &[("nodes", 2), ("iterations", 4), ("window", 2)],
        );
        let mem = clean.thread_track("membership");
        clean.push_instant(
            mem,
            "epoch",
            "membership",
            1,
            &[("epoch", 0), ("from_iter", 0), ("members_mask", 0b11)],
        );
        let baseline = RuntimeReport::from_trace(&clean);

        let wd = clean.thread_track("watchdog");
        for label in ["membership_change", "iteration_stall", "fault_burst"] {
            clean.push_instant(
                wd,
                label,
                "alert",
                2_000,
                &[("node", 0), ("iter", 1), ("observed", 9), ("threshold", 3)],
            );
        }
        let with_alerts = RuntimeReport::from_trace(&clean);
        assert_eq!(with_alerts, baseline);
        assert_eq!(with_alerts.to_json(), baseline.to_json());
    }

    #[test]
    fn fault_report_absorbs_and_displays() {
        let mut a = RuntimeReport::default();
        let mut b = RuntimeReport::default();
        b.faults.injected_drops = 3;
        b.faults.injected_corruptions = 2;
        b.faults.retries = 4;
        b.faults.corruptions_detected = 2;
        b.faults.degraded_chunks = 1;
        b.faults.verdicts.push(StragglerVerdict {
            node: 0,
            peer: 2,
            waited_ns: 250_000_000,
            action: DegradeAction::Skipped,
        });
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.faults.injected_drops, 6);
        assert_eq!(a.faults.total_injected(), 10);
        assert_eq!(a.faults.verdicts.len(), 2);
        assert!(!a.faults.is_empty());
        let s = a.to_string();
        assert!(s.contains("faults:"), "{s}");
        assert!(s.contains("injected drops"));
        assert!(s.contains("corruptions detected"));
        assert!(s.contains("straggler"));
        assert!(s.contains("skipped"));
        for line in s.lines() {
            assert_eq!(line, line.trim_end(), "trailing whitespace in {line:?}");
        }
        // Fast-path reports show no fault section at all.
        assert!(!RuntimeReport::default().to_string().contains("faults:"));
    }

    #[test]
    fn fabric_and_pipeline_sections_render_when_present() {
        // Fast-path reports show neither section.
        let plain = RuntimeReport::default().to_string();
        assert!(!plain.contains("fabric:"));
        assert!(!plain.contains("pipeline:"));
        let mut r = RuntimeReport {
            nodes: 2,
            wall_ns: 1_000,
            fabric_frames: 10,
            fabric_bytes_framed: 2048,
            fabric_bytes_payload: 1500,
            fabric_retransmits: 1,
            iterations: 4,
            pipeline_window: 2,
            iter_span_ns_total: 4_000,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("fabric:"), "{s}");
        assert!(s.contains("frames sent"));
        assert!(s.contains("retransmissions"));
        assert!(s.contains("pipeline: 4 iterations, window 2"));
        // Spans 4000 vs elapsed 2×1000 → half the span time was
        // hidden by overlap.
        assert!((r.pipeline_overlap() - 0.5).abs() < 1e-9);
        // Serial-ish spans (≤ nodes × wall) clamp to zero overlap.
        r.iter_span_ns_total = 1_900;
        assert_eq!(r.pipeline_overlap(), 0.0);
        // Absorb accumulates the fabric counters and spans.
        let mut a = RuntimeReport::default();
        a.absorb(&r);
        a.absorb(&r);
        assert_eq!(a.fabric_frames, 20);
        assert_eq!(a.fabric_bytes_framed, 4096);
        assert_eq!(a.fabric_retransmits, 2);
        assert_eq!(a.iter_span_ns_total, 3_800);
    }

    #[test]
    fn from_trace_rebuilds_fault_events() {
        let mut t = Trace::new("casync-rt");
        let n0 = t.thread_track("node0");
        t.push_instant(n0, "drop", "chaos", 10, &[]);
        t.push_instant(n0, "drop", "chaos", 11, &[]);
        t.push_instant(n0, "corrupt", "chaos", 12, &[]);
        t.push_instant(n0, "stall", "chaos", 13, &[]);
        t.push_instant(n0, "retry", "ft", 20, &[]);
        t.push_instant(n0, "nack", "ft", 21, &[]);
        t.push_instant(n0, "dup_ignored", "ft", 22, &[]);
        t.push_instant(n0, "corrupt_detected", "ft", 23, &[]);
        t.push_instant(n0, "skip", "ft", 24, &[]);
        t.push_instant(
            n0,
            "skipped",
            "straggler",
            30,
            &[("node", 0), ("peer", 1), ("waited_ns", 5_000)],
        );
        let r = RuntimeReport::from_trace(&t);
        assert_eq!(r.faults.injected_drops, 2);
        assert_eq!(r.faults.injected_corruptions, 1);
        assert_eq!(r.faults.injected_stalls, 1);
        assert_eq!(r.faults.retries, 1);
        assert_eq!(r.faults.nacks, 1);
        assert_eq!(r.faults.duplicates_ignored, 1);
        assert_eq!(r.faults.corruptions_detected, 1);
        assert_eq!(r.faults.degraded_chunks, 1);
        assert_eq!(
            r.faults.verdicts,
            vec![StragglerVerdict {
                node: 0,
                peer: 1,
                waited_ns: 5_000,
                action: DegradeAction::Skipped,
            }]
        );
    }
}
