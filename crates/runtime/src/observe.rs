//! Distributed observability for the process backend: shipping
//! per-rank traces over the control channel, aligning per-process
//! clocks, merging rank timelines into one global trace, and the
//! postmortem dump format for the flight recorder.
//!
//! Each worker process records against its own monotonic epoch
//! (`Instant` values are meaningless across processes), so the
//! coordinator runs an NTP-style ping exchange over the Ctl socket
//! during rendezvous: it stamps `t1`, the worker answers with its own
//! clock reading `t2`, the coordinator stamps `t3` on receipt. With
//! symmetric paths the worker's clock read happened at coordinator
//! time `(t1 + t3) / 2`, so `offset = (t1 + t3)/2 − t2` maps worker
//! timestamps onto the coordinator's epoch with error at most
//! `(t3 − t1)/2` (half the round trip — the asymmetric worst case).
//! Several probes are taken and the minimum-RTT sample wins, since
//! queueing delay only ever inflates the bound.
//!
//! The alignment is *validated*, not assumed: after merging,
//! [`validate_clock_monotonicity`] checks every matched Send→Recv
//! span pair — a receive that ends before its send began (beyond the
//! two ranks' combined uncertainty) proves the offsets are wrong.

use hipress_fabric::FlightEvent;
use hipress_trace::{Trace, Tracer, TrackKind};
use hipress_util::codec::{zigzag, DecodeError, Field, Reader, Writer};
use hipress_util::record;
use std::collections::HashMap;

record! {
    /// One rank's clock alignment against the coordinator's epoch:
    /// add `offset_ns` to a worker timestamp to land on the
    /// coordinator's timeline, correct to within `uncertainty_ns`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClockSync {
        /// Worker-to-coordinator epoch offset, nanoseconds (signed: a
        /// worker that started later than the coordinator has a positive
        /// offset).
        pub offset_ns: i64,
        /// Error bound on the offset: half the round-trip time of the
        /// best probe.
        pub uncertainty_ns: u64,
    }
}

impl ClockSync {
    /// Estimates the alignment from `(t1, t2, t3)` probe samples —
    /// coordinator send time, worker clock reading, coordinator
    /// receive time. The minimum-RTT sample wins. An empty slice
    /// yields the identity alignment with zero claimed uncertainty
    /// (callers that never probed are on one clock already).
    pub fn estimate(samples: &[(u64, u64, u64)]) -> ClockSync {
        let best = samples
            .iter()
            .min_by_key(|&&(t1, _, t3)| t3.saturating_sub(t1));
        match best {
            None => ClockSync::default(),
            Some(&(t1, t2, t3)) => {
                let rtt = t3.saturating_sub(t1);
                let offset = (i128::from(t1) + i128::from(t3)) / 2 - i128::from(t2);
                ClockSync {
                    offset_ns: offset.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64,
                    uncertainty_ns: rtt / 2,
                }
            }
        }
    }

    /// Maps a worker timestamp onto the coordinator's timeline,
    /// saturating at the representable range.
    pub fn correct(&self, ts_ns: u64) -> u64 {
        if self.offset_ns >= 0 {
            ts_ns.saturating_add(self.offset_ns as u64)
        } else {
            ts_ns.saturating_sub(self.offset_ns.unsigned_abs())
        }
    }
}

/// The thread track carrying per-rank clock-alignment metadata in a
/// merged trace.
pub const CLOCK_TRACK: &str = "clock";

/// Re-records every event and sample of `trace` into `tracer` with
/// timestamps corrected by `sync` — the merge step that stitches one
/// rank's timeline into the coordinator's global trace. Track names
/// carry the rank (`node{r}`, `node{r}/Q_comp`), so ranks never
/// collide.
pub fn replay_into(tracer: &Tracer, trace: &Trace, sync: &ClockSync) {
    for track in trace.tracks() {
        match track.kind {
            TrackKind::Thread => {
                let id = tracer.thread_track(&track.name);
                for e in &track.events {
                    let args: Vec<(&str, u64)> =
                        e.args.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                    let ts = sync.correct(e.ts_ns);
                    if e.instant {
                        tracer.instant(id, &e.name, &e.category, ts, &args);
                    } else {
                        tracer.record_span(id, &e.name, &e.category, ts, e.dur_ns, &args);
                    }
                }
            }
            TrackKind::Counter => {
                let id = tracer.counter_track(&track.name);
                for &(ts, v) in &track.samples {
                    tracer.sample(id, sync.correct(ts), v);
                }
            }
        }
    }
}

/// Records one rank's clock alignment as trace metadata: an `offset`
/// instant on the [`CLOCK_TRACK`] with the rank, the zigzag-encoded
/// offset, and the uncertainty bound. [`validate_clock_monotonicity`]
/// reads these back.
pub fn record_clock_meta(tracer: &Tracer, rank: usize, sync: &ClockSync) {
    let t = tracer.thread_track(CLOCK_TRACK);
    tracer.instant(
        t,
        "offset",
        "clock",
        tracer.now_ns(),
        &[
            ("rank", rank as u64),
            ("offset_zz", zigzag(sync.offset_ns)),
            ("uncertainty_ns", sync.uncertainty_ns),
        ],
    );
}

/// Per-rank offset uncertainties recorded by [`record_clock_meta`],
/// keyed by rank.
fn clock_uncertainties(trace: &Trace) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for e in trace.events_of("clock") {
        if e.name == "offset" {
            if let Some(rank) = e.arg("rank") {
                out.insert(rank, e.arg("uncertainty_ns").unwrap_or(0));
            }
        }
    }
    out
}

/// Checks causal order on a merged, clock-corrected trace: for every
/// matched Send→Recv span pair (a `recv` span naming its `send_task`
/// against the `send` span of the same task and iteration on another
/// rank's track), the receive must not end before the send began,
/// beyond the two ranks' combined clock uncertainty. Returns the
/// number of matched pairs checked.
///
/// Single-process traces carry no `send_task` links and pass
/// vacuously with zero pairs.
///
/// # Errors
///
/// One human-readable line per violated pair — any violation means
/// the claimed clock offsets cannot be right.
pub fn validate_clock_monotonicity(trace: &Trace) -> Result<usize, Vec<String>> {
    let unc = clock_uncertainties(trace);
    // (task, iter) → (send start, sending rank). Rank comes from the
    // track name: per-rank timelines are named `node{r}` (gauge
    // tracks like `node0/Q_comp` fail the parse and are skipped).
    let mut sends: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    for track in trace.tracks() {
        let Some(rank) = track
            .name
            .strip_prefix("node")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        for e in &track.events {
            if e.category == "send" && !e.instant {
                if let Some(task) = e.arg("task") {
                    sends.insert((task, e.arg("iter").unwrap_or(0)), (e.ts_ns, rank));
                }
            }
        }
    }
    let mut matched = 0usize;
    let mut violations = Vec::new();
    for track in trace.tracks() {
        let Some(rank) = track
            .name
            .strip_prefix("node")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        for e in &track.events {
            if e.category != "recv" || e.instant {
                continue;
            }
            let Some(send_task) = e.arg("send_task") else {
                continue;
            };
            let iter = e.arg("iter").unwrap_or(0);
            let Some(&(send_ts, send_rank)) = sends.get(&(send_task, iter)) else {
                continue;
            };
            matched += 1;
            let slack =
                unc.get(&rank).copied().unwrap_or(0) + unc.get(&send_rank).copied().unwrap_or(0);
            if e.end_ns().saturating_add(slack) < send_ts {
                violations.push(format!(
                    "recv of task {send_task} (iter {iter}) on node{rank} ends at {} ns, \
                     before its send on node{send_rank} starts at {send_ts} ns \
                     (clock slack {slack} ns)",
                    e.end_ns()
                ));
            }
        }
    }
    if violations.is_empty() {
        Ok(matched)
    } else {
        Err(violations)
    }
}

record! {
    /// One rank's contribution to a postmortem: its flight-recorder ring
    /// and the clock alignment that maps its timestamps onto the
    /// coordinator's timeline.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RankFlight {
        /// The rank whose ring this is.
        pub rank: u32,
        /// How this rank's clock maps onto the coordinator's.
        pub sync: ClockSync,
        /// The retained protocol events, oldest first.
        pub events: Vec<FlightEvent>,
    }
}

/// Marks the rank of a [`PostmortemDump`] whose root cause could not
/// be attributed to a specific node.
pub const UNKNOWN_NODE: u32 = u32::MAX;

record! {
    /// A crash-surviving cross-rank flight-recorder dump: every
    /// surviving rank's last-N protocol events plus the diagnosed root
    /// cause, written to disk by the coordinator on any synchronization
    /// failure and rendered by `hipress postmortem`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PostmortemDump {
        /// The file magic, first on disk.
        pub magic: PostmortemMagic,
        /// Total ranks in the failed run.
        pub nodes: u32,
        /// The diagnosed root-cause rank ([`UNKNOWN_NODE`] when the
        /// failure named no node).
        pub failed_node: u32,
        /// The root-cause error text.
        pub detail: String,
        /// Each reporting rank's ring (the dead rank is typically
        /// absent — its ring died with it; survivors' rings name it).
        pub ranks: Vec<RankFlight>,
    }
}

/// File magic for serialized postmortem dumps ("HPM1").
const POSTMORTEM_MAGIC: u32 = 0x4850_4D31;

/// The four bytes a postmortem dump starts with: a field that writes
/// [`POSTMORTEM_MAGIC`] and rejects any other value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostmortemMagic;

impl Field for PostmortemMagic {
    fn put(&self, w: &mut Writer) {
        w.put_u32(POSTMORTEM_MAGIC);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u32()? {
            POSTMORTEM_MAGIC => Ok(PostmortemMagic),
            magic => Err(DecodeError::BadTag {
                what: "postmortem magic",
                tag: u64::from(magic),
            }),
        }
    }
}

impl PostmortemDump {
    /// Renders the causally ordered cross-rank narrative: every
    /// retained event from every ring, clock-corrected onto one
    /// timeline, ending at the root-cause line naming the dead node.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total: usize = self.ranks.iter().map(|r| r.events.len()).sum();
        out.push_str(&format!(
            "postmortem: {} ranks, {} flight events from {} surviving rings\n",
            self.nodes,
            total,
            self.ranks.len()
        ));
        for r in &self.ranks {
            out.push_str(&format!(
                "  clock: node {} offset {:+} ns (±{} ns), {} events\n",
                r.rank,
                r.sync.offset_ns,
                r.sync.uncertainty_ns,
                r.events.len()
            ));
        }
        let mut merged: Vec<(u64, u32, &FlightEvent)> = Vec::with_capacity(total);
        for r in &self.ranks {
            for e in &r.events {
                merged.push((r.sync.correct(e.ts_ns), r.rank, e));
            }
        }
        merged.sort_by_key(|&(ts, rank, e)| (ts, rank, e.seq));
        let base = merged.first().map(|&(ts, _, _)| ts).unwrap_or(0);
        for (ts, rank, e) in &merged {
            out.push_str(&format!(
                "  [+{:>10.3}ms] node {} {:<10} peer={} seq={} bytes={}\n",
                (ts - base) as f64 / 1e6,
                rank,
                e.kind.label(),
                e.peer,
                e.seq,
                e.bytes
            ));
        }
        if self.failed_node == UNKNOWN_NODE {
            out.push_str(&format!("root cause: unattributed — {}\n", self.detail));
        } else {
            out.push_str(&format!(
                "root cause: node {} — {}\n",
                self.failed_node, self.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_fabric::FlightKind;
    use hipress_util::codec::{check_record, unzigzag, WireMsg};

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        // Small magnitudes stay small either sign.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn trace_round_trips_through_the_tlv_codec() {
        let mut t = Trace::new("casync-rt/node2");
        let n = t.thread_track("node2");
        t.push_span(
            n,
            "send",
            "send",
            100,
            40,
            &[("task", 7), ("bytes_wire", 64), ("iter", 1)],
        );
        t.push_instant(n, "msg", "fabric", 150, &[("task", 7)]);
        let q = t.counter_track("node2/Q_comp");
        t.push_sample(q, 90, 1.0);
        t.push_sample(q, 110, 0.5);
        check_record(&t);
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn clock_estimate_picks_the_minimum_rtt_probe() {
        // Worker clock runs 1000 ns behind the coordinator's; the
        // second probe has the tightest round trip.
        let samples = [
            (10_000, 9_500, 11_000),  // rtt 1000, offset 1000
            (20_000, 19_100, 20_200), // rtt 200, offset 1000
            (30_000, 29_600, 31_000), // rtt 1000, offset 900
        ];
        let sync = ClockSync::estimate(&samples);
        assert_eq!(sync.offset_ns, 1_000);
        assert_eq!(sync.uncertainty_ns, 100);
        assert_eq!(sync.correct(500), 1_500);
        // No probes: identity.
        assert_eq!(ClockSync::estimate(&[]), ClockSync::default());
    }

    #[test]
    fn negative_offsets_correct_and_saturate() {
        let sync = ClockSync {
            offset_ns: -300,
            uncertainty_ns: 10,
        };
        assert_eq!(sync.correct(1_000), 700);
        assert_eq!(sync.correct(100), 0, "saturates at zero");
        let fwd = ClockSync {
            offset_ns: 5,
            uncertainty_ns: 0,
        };
        assert_eq!(fwd.correct(u64::MAX), u64::MAX, "saturates at max");
    }

    #[test]
    fn replay_applies_the_offset() {
        let mut worker = Trace::new("casync-rt/node1");
        let n = worker.thread_track("node1");
        worker.push_span(n, "encode", "encode", 100, 50, &[("task", 3)]);
        let q = worker.counter_track("node1/Q_comp");
        worker.push_sample(q, 120, 2.0);

        let tracer = Tracer::new("casync-rt");
        let sync = ClockSync {
            offset_ns: 1_000,
            uncertainty_ns: 5,
        };
        replay_into(&tracer, &worker, &sync);
        record_clock_meta(&tracer, 1, &sync);
        let merged = tracer.finish();
        let e = merged.events_of("encode").next().unwrap();
        assert_eq!((e.ts_ns, e.dur_ns, e.arg("task")), (1_100, 50, Some(3)));
        let qt = merged.find_track("node1/Q_comp").unwrap();
        assert_eq!(merged.track(qt).samples, vec![(1_120, 2.0)]);
        let c = merged.events_of("clock").next().unwrap();
        assert_eq!(c.arg("rank"), Some(1));
        assert_eq!(c.arg("offset_zz").map(unzigzag), Some(1_000));
        assert_eq!(c.arg("uncertainty_ns"), Some(5));
    }

    fn merged_with_recv_end(recv_ts: u64, recv_dur: u64, slack: u64) -> Trace {
        let mut t = Trace::new("casync-rt");
        let n0 = t.thread_track("node0");
        let n1 = t.thread_track("node1");
        t.push_span(n0, "send", "send", 1_000, 50, &[("task", 4), ("iter", 0)]);
        t.push_span(
            n1,
            "recv",
            "recv",
            recv_ts,
            recv_dur,
            &[("task", 9), ("send_task", 4), ("iter", 0)],
        );
        let c = t.thread_track(CLOCK_TRACK);
        t.push_instant(
            c,
            "offset",
            "clock",
            0,
            &[
                ("rank", 1),
                ("offset_zz", zigzag(0)),
                ("uncertainty_ns", slack),
            ],
        );
        t
    }

    #[test]
    fn monotonicity_accepts_causal_pairs_and_rejects_inverted_ones() {
        // Receive ends after the send starts: fine.
        assert_eq!(
            validate_clock_monotonicity(&merged_with_recv_end(1_200, 10, 0)),
            Ok(1)
        );
        // Receive ends before the send starts, no slack: violation.
        let err = validate_clock_monotonicity(&merged_with_recv_end(500, 10, 0)).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("node1"), "{}", err[0]);
        assert!(err[0].contains("task 4"), "{}", err[0]);
        // The same inversion inside the claimed uncertainty: allowed.
        assert_eq!(
            validate_clock_monotonicity(&merged_with_recv_end(500, 10, 600)),
            Ok(1)
        );
    }

    #[test]
    fn monotonicity_is_vacuous_without_send_links() {
        // Single-process traces carry no send_task args.
        let mut t = Trace::new("casync-rt");
        let n0 = t.thread_track("node0");
        t.push_span(n0, "send", "send", 100, 10, &[("task", 1)]);
        t.push_span(n0, "recv", "recv", 50, 10, &[("task", 2)]);
        assert_eq!(validate_clock_monotonicity(&t), Ok(0));
    }

    fn sample_dump() -> PostmortemDump {
        PostmortemDump {
            magic: PostmortemMagic,
            nodes: 3,
            failed_node: 1,
            detail: "worker process exited without reporting an outcome".into(),
            ranks: vec![
                RankFlight {
                    rank: 0,
                    sync: ClockSync {
                        offset_ns: -50,
                        uncertainty_ns: 10,
                    },
                    events: vec![
                        FlightEvent {
                            ts_ns: 2_000_000,
                            kind: FlightKind::SendData,
                            peer: 1,
                            seq: 7,
                            bytes: 512,
                        },
                        FlightEvent {
                            ts_ns: 9_000_000,
                            kind: FlightKind::PeerLost,
                            peer: 1,
                            seq: 0,
                            bytes: 0,
                        },
                    ],
                },
                RankFlight {
                    rank: 2,
                    sync: ClockSync {
                        offset_ns: 7,
                        uncertainty_ns: 3,
                    },
                    events: vec![FlightEvent {
                        ts_ns: 1_000_000,
                        kind: FlightKind::Hello,
                        peer: 0,
                        seq: 0,
                        bytes: 0,
                    }],
                },
            ],
        }
    }

    /// Byte-at-a-time FNV-1a, independent of the fabric's own digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// The dump file's bytes, pinned as a digest captured on the commit
    /// before the record schema replaced the hand-written codec.
    #[test]
    fn postmortem_dump_matches_the_parent_commit() {
        let bytes = sample_dump().to_bytes();
        assert_eq!(fnv1a(&bytes), 0x23cd_f8d5_3c4b_d68c, "{:#x}", fnv1a(&bytes));
    }

    #[test]
    fn records_survive_hostile_bytes() {
        let dump = sample_dump();
        check_record(&dump.ranks[0].sync);
        check_record(&dump.ranks[0]);
        check_record(&dump);
    }

    #[test]
    fn postmortem_round_trips_and_names_the_dead_node() {
        let dump = sample_dump();
        let back = PostmortemDump::from_bytes(&dump.to_bytes()).unwrap();
        assert_eq!(back, dump);
        let text = dump.render();
        assert!(
            text.lines().last().unwrap().contains("node 1"),
            "root cause last: {text}"
        );
        assert!(text.contains("peer-lost"), "{text}");
        // Events are merged in corrected time order: rank 2's hello
        // (1 ms) precedes rank 0's send (2 ms − 50 ns).
        let hello = text.find("hello").unwrap();
        let send = text.find("send").unwrap();
        assert!(hello < send, "{text}");
        // Truncated and corrupt inputs fail structurally.
        assert!(PostmortemDump::from_bytes(&[1, 2, 3]).is_err());
    }
}
