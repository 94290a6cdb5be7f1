//! The coordinator-worker control protocol. Each worker's control
//! stream carries [`Ctl`] frames: a `u32` length prefix, then the
//! message as a declared record (`hipress_util::record!`) — a tag
//! byte, then its fields.

use super::Job;
use crate::report::RuntimeReport;
use hipress_fabric::frame::{read_exact_vec, write_all_vectored};
use hipress_fabric::FlightEvent;
use hipress_obs::IterRecord;
use hipress_trace::Trace;
use hipress_util::codec::WireMsg;
use hipress_util::{record, Error, Result};
use std::io::Read;
use std::net::TcpStream;

record! {
    /// One control message.
    pub(super) enum Ctl ["ctl"] {
        /// Worker → coordinator: `rank` is listening for mesh peers on
        /// `mesh_port`.
        Hello { rank: u32, mesh_port: u16 } = 1,
        /// Coordinator → worker: the job to run.
        Job(Box<Job>) = 2,
        /// Worker → coordinator: the protocol completed; here are the
        /// updated chunk values `(flow, part, elements)`, the measured
        /// report, the optional per-rank trace and metrics snapshot
        /// (JSON), and the flight-recorder ring.
        Outcome {
            cells: Vec<(u32, u32, Vec<f32>)>,
            report: RuntimeReport,
            trace: Option<Trace>,
            metrics: Option<String>,
            flight: Vec<FlightEvent>,
        } = 3,
        /// Worker → coordinator: the segment failed under this worker.
        /// The flight ring rides along so the postmortem sees the failing
        /// rank's view; `completed` is how many segment-local iterations
        /// had fully retired here, so an evict-on-loss coordinator can
        /// pick the drain boundary.
        Failed {
            error: Error,
            flight: Vec<FlightEvent>,
            completed: u32,
        } = 4,
        /// Coordinator → worker: all outcomes collected; tear the mesh
        /// down and exit.
        Shutdown = 5,
        /// Coordinator → worker: clock probe carrying the coordinator's
        /// clock reading `t1` (NTP-style offset estimation during
        /// rendezvous).
        ClockPing { t1: u64 } = 6,
        /// Worker → coordinator: `t1` echoed back plus the worker's own
        /// clock reading `t2` at the moment of the answer.
        ClockPong { t1: u64, t2: u64 } = 7,
        /// Worker → coordinator: one iteration retired (live telemetry).
        /// Sent between `Job` and `Outcome`/`Failed` when the job asked
        /// for progress; the coordinator restamps `ts_ns` on arrival so
        /// every rank's records share its one clock.
        Progress { rec: IterRecord } = 8,
        /// Rendezvous-plane frame in either direction.
        Member(Member) = 9,
    }
}

record! {
    /// The rendezvous plane: membership changes, which travel only on
    /// the control stream, never on the data mesh. Its tags continue
    /// the data mesh's message tags (`Done = 1`, `Abort = 2`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(super) enum Member ["member"] {
        /// Joiner → coordinator: a restarted (or brand-new) worker asks
        /// to be admitted into a running job. `epoch` is the last epoch
        /// the worker saw (0 for a fresh process); admission happens at
        /// the next epoch boundary, never mid-segment.
        Join {
            /// The global rank the worker claims.
            rank: u32,
            /// The last membership epoch the worker participated in.
            epoch: u64,
        } = 3,
        /// Coordinator → joiner: the answer to [`Member::Join`] — the
        /// joiner is admitted and will be dispatched work when epoch
        /// `epoch` begins at iteration `from_iter` over `members`.
        Welcome {
            /// The epoch the joiner becomes a member of.
            epoch: u64,
            /// The first global iteration of that epoch.
            from_iter: u32,
            /// The member set of that epoch (global ranks, ascending).
            members: Vec<u32>,
        } = 4,
        /// Coordinator → surviving workers between segments: membership
        /// changed. Bumps every member to `epoch`, naming the evicted
        /// rank (if the bump was a death rather than a join) and the
        /// member set the next segment runs over.
        EpochBump {
            /// The new membership epoch.
            epoch: u64,
            /// The rank evicted by this bump, if it was a death.
            evicted: Option<u32>,
            /// The first global iteration of the new epoch.
            from_iter: u32,
            /// The member set of the new epoch (global ranks, ascending).
            members: Vec<u32>,
        } = 5,
    }
}

/// Control frames are a plain u32 length prefix + [`Ctl`] body —
/// the rendezvous channel is point-to-point and short-lived, so the
/// mesh's checksummed reliability discipline would be dead weight.
const CTL_MAX_BYTES: u32 = 1 << 30;

pub(super) fn ctl_io(detail: impl std::fmt::Display) -> Error {
    Error::sim(format!("process control channel: {detail}"))
}

/// `Job` and `Outcome` carry whole gradient sets, so the body goes
/// out beside its prefix (vectored, not copied behind it) and comes
/// in straight into the buffer it is decoded from.
pub(super) fn write_ctl(stream: &mut TcpStream, msg: &Ctl) -> Result<()> {
    let body = msg.to_bytes();
    let len = (body.len() as u32).to_le_bytes();
    write_all_vectored(stream, [&len[..], &body[..]]).map_err(ctl_io)
}

pub(super) fn read_ctl(stream: &mut TcpStream) -> Result<Ctl> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).map_err(ctl_io)?;
    let len = u32::from_le_bytes(len);
    if len > CTL_MAX_BYTES {
        return Err(ctl_io(format!("oversized control frame ({len} bytes)")));
    }
    let body = read_exact_vec(stream, len as usize).map_err(ctl_io)?;
    Ctl::from_bytes(&body).map_err(|e| ctl_io(format!("bad control frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DegradeAction, EpochRecord, FaultReport, PrimStat, StragglerVerdict};
    use hipress_compress::Algorithm;
    use hipress_core::Strategy;
    use hipress_util::codec::{check_record, DecodeError, Field, Writer};
    use hipress_util::{Rng64, SplitMix64, SyncFailure, SyncFailureKind};

    /// Byte-at-a-time FNV-1a, independent of the fabric's own digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    fn report_tlv(rep: &RuntimeReport) -> Vec<u8> {
        let mut w = Writer::new();
        rep.put(&mut w);
        w.into_vec()
    }

    /// A report whose every field holds a distinct, non-default value.
    fn every_field_report() -> RuntimeReport {
        let prim = |i: u64| PrimStat {
            count: 10 + i,
            busy_ns: 1000 + i,
        };
        RuntimeReport {
            nodes: 3,
            wall_ns: 123_456,
            source: prim(0),
            encode: prim(1),
            decode: prim(2),
            merge: prim(3),
            send: prim(4),
            recv: prim(5),
            update: prim(6),
            barrier: prim(7),
            local_agg_ns: 777,
            bytes_wire: 2048,
            bytes_raw: 8192,
            messages: 55,
            comp_batch_launches: 4,
            per_node_busy_ns: vec![11, 22, 33],
            faults: FaultReport {
                injected_drops: 1,
                injected_dups: 2,
                injected_reorders: 3,
                injected_delays: 4,
                injected_corruptions: 5,
                injected_stalls: 6,
                retries: 7,
                nacks: 8,
                duplicates_ignored: 9,
                corruptions_detected: 10,
                degraded_chunks: 11,
                verdicts: vec![
                    StragglerVerdict {
                        node: 1,
                        peer: 2,
                        waited_ns: 999,
                        action: DegradeAction::Skipped,
                    },
                    StragglerVerdict {
                        node: 2,
                        peer: 0,
                        waited_ns: 888,
                        action: DegradeAction::Aborted,
                    },
                ],
            },
            fabric_frames: 60,
            fabric_bytes_framed: 61,
            fabric_bytes_payload: 62,
            fabric_retransmits: 63,
            iterations: 16,
            pipeline_window: 5,
            iter_span_ns_total: 424_242,
            membership: vec![
                EpochRecord {
                    epoch: 0,
                    from_iter: 0,
                    members: vec![0, 1, 2],
                },
                EpochRecord {
                    epoch: 1,
                    from_iter: 9,
                    members: vec![0, 2],
                },
            ],
            evicted: vec![1],
        }
    }

    fn every_field_job() -> Job {
        Job {
            strategy: Strategy::CaSyncRing,
            algorithm: Algorithm::Tbq { tau: 0.25 },
            partitions: 3,
            seed: 99,
            nodes: 4,
            rank: 2,
            iterations: 8,
            window: 5,
            want_trace: true,
            want_metrics: true,
            want_progress: true,
            grad_lens: vec![16, 32],
            grads: vec![vec![1.0, -2.5], vec![f32::NAN]],
            mesh_ports: vec![4000, 4001, 4002, 4003],
            epoch: 6,
            base_iter: 11,
            die_at_iter: Some(7),
        }
    }

    fn flight() -> Vec<FlightEvent> {
        vec![
            FlightEvent {
                ts_ns: 2_000_000,
                kind: hipress_fabric::FlightKind::SendData,
                peer: 1,
                seq: 7,
                bytes: 512,
            },
            FlightEvent {
                ts_ns: 9_000_000,
                kind: hipress_fabric::FlightKind::PeerLost,
                peer: 2,
                seq: 3,
                bytes: 64,
            },
        ]
    }

    fn outcome() -> Ctl {
        let mut trace = Trace::new("casync-rt/node0");
        let t = trace.thread_track("node0");
        trace.push_span(t, "send", "send", 10, 5, &[("task", 3)]);
        trace.push_instant(t, "msg", "fabric", 12, &[]);
        let q = trace.counter_track("node0/Q_comp");
        trace.push_sample(q, 11, 0.5);
        Ctl::Outcome {
            cells: vec![(0, 1, vec![3.5, -0.0]), (2, 0, vec![f32::INFINITY])],
            report: every_field_report(),
            trace: Some(trace),
            metrics: Some("{\"m\":1}".into()),
            flight: flight(),
        }
    }

    fn sync_failed(peer: Option<usize>, task: Option<u32>) -> Ctl {
        Ctl::Failed {
            error: Error::sync(SyncFailure {
                kind: SyncFailureKind::Straggler,
                node: 2,
                peer,
                task,
                detail: "seq 9 unacknowledged".into(),
            }),
            flight: flight(),
            completed: 4,
        }
    }

    /// One error of each category.
    fn every_error() -> Vec<Error> {
        vec![
            Error::sim("node 2 wedged"),
            Error::sync(SyncFailure {
                kind: SyncFailureKind::LinkDead,
                node: 2,
                peer: Some(0),
                task: Some(5),
                detail: "8 retransmissions".into(),
            }),
            Error::codec("truncated stream"),
            Error::dsl("bad token"),
            Error::config("ring of one"),
            Error::plan("no profile"),
            Error::lint("race on chunk 3"),
        ]
    }

    /// One frame of every control message, each field distinct and
    /// non-default.
    fn every_ctl() -> Vec<(&'static str, Ctl)> {
        vec![
            (
                "hello",
                Ctl::Hello {
                    rank: 3,
                    mesh_port: 40_123,
                },
            ),
            ("job", Ctl::Job(Box::new(every_field_job()))),
            ("outcome", outcome()),
            ("failed/sync", sync_failed(Some(1), Some(42))),
            ("failed/sync-bare", sync_failed(None, None)),
            (
                "failed/other",
                Ctl::Failed {
                    error: Error::sim("node 2 wedged"),
                    flight: flight(),
                    completed: 3,
                },
            ),
            ("shutdown", Ctl::Shutdown),
            ("ping", Ctl::ClockPing { t1: 77 }),
            ("pong", Ctl::ClockPong { t1: 78, t2: 99 }),
            (
                "progress",
                Ctl::Progress {
                    rec: IterRecord {
                        node: 1,
                        iter: 2,
                        ts_ns: 3,
                        span_ns: 4,
                        comp_ns: 5,
                        commu_ns: 6,
                        bytes_wire: 7,
                        messages: 8,
                        retransmits: 9,
                        faults: 10,
                        window: 11,
                        epoch: 12,
                    },
                },
            ),
            (
                "member",
                Ctl::Member(Member::Welcome {
                    epoch: 2,
                    from_iter: 9,
                    members: vec![0, 2, 3],
                }),
            ),
        ]
    }

    /// The control protocol's bytes, pinned as digests captured on the
    /// commit before the record schema replaced the hand-written
    /// codecs. Each frame also re-encodes to itself after a decode (so
    /// no field is dropped or altered in transit), and every strict
    /// prefix of it fails to decode.
    #[test]
    fn ctl_frames_match_the_parent_commit() {
        let want = [
            0x465a_4d23_2d26_a610_u64,
            // Re-captured when the engine's tuning record left `Job`.
            0x2930_2325_7acc_5991,
            0xc410_833f_4e53_4ed3,
            0x99ee_5e96_349c_90dd,
            0xf68e_9cfa_6d47_4206,
            // Re-captured when errors began to travel with their category
            // (the parent sent this one as rendered text).
            0x18e0_3242_789c_34c6,
            0xaf63_b84c_8601_af60,
            0x6598_320f_08db_42b4,
            0x3ae6_3321_26dc_bf4b,
            0x9025_fff5_6150_266b,
            0xa6a2_aac2_0b68_b369,
        ];
        for ((name, msg), want) in every_ctl().into_iter().zip(want) {
            let bytes = msg.to_bytes();
            assert_eq!(fnv1a(&bytes), want, "{name}: {:#x}", fnv1a(&bytes));
            for cut in 0..bytes.len() {
                assert!(Ctl::from_bytes(&bytes[..cut]).is_err(), "{name} at {cut}");
            }
            let back = Ctl::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back.to_bytes(), bytes, "{name}");
        }
    }

    /// Every error category reaches the coordinator as itself, not as
    /// its rendered text under another category.
    #[test]
    fn every_error_category_round_trips() {
        for error in every_error() {
            let msg = Ctl::Failed {
                error: error.clone(),
                flight: flight(),
                completed: 1,
            };
            match Ctl::from_bytes(&msg.to_bytes()) {
                Ok(Ctl::Failed { error: back, .. }) => assert_eq!(back, error),
                _ => panic!("{error} did not come back as a failure"),
            }
        }
    }

    /// A `Job` per strategy and per algorithm, a `Failed` frame per
    /// sync-failure kind, and a `Waited` straggler verdict, pinned as
    /// digests captured on the commit before their tag tables became
    /// declarations (the `Job` rows re-captured when the engine's
    /// tuning record left `Job`).
    #[test]
    fn tag_tables_match_the_parent_commit() {
        let job = |strategy, algorithm| {
            Ctl::Job(Box::new(Job {
                strategy,
                algorithm,
                ..every_field_job()
            }))
        };
        let failed = |kind| Ctl::Failed {
            error: Error::sync(SyncFailure {
                kind,
                node: 1,
                peer: Some(3),
                task: Some(8),
                detail: "kind row".into(),
            }),
            flight: Vec::new(),
            completed: 2,
        };
        let (ps, tbq) = (Strategy::CaSyncPs, Algorithm::Tbq { tau: 0.25 });
        let rows = [
            (
                "strategy/casync-ps",
                job(Strategy::CaSyncPs, tbq),
                0xd0ee_1e8a_4299_349e,
            ),
            (
                "strategy/casync-ring",
                job(Strategy::CaSyncRing, tbq),
                0x2930_2325_7acc_5991,
            ),
            (
                "strategy/byteps",
                job(Strategy::BytePs, tbq),
                0x4f2b_5e09_319e_be5c,
            ),
            (
                "strategy/ring",
                job(Strategy::HorovodRing, tbq),
                0xf412_0ca0_6800_c5df,
            ),
            (
                "algorithm/none",
                job(ps, Algorithm::None),
                0xe877_7dc7_120b_980a,
            ),
            (
                "algorithm/onebit",
                job(ps, Algorithm::OneBit),
                0x9fec_0d02_27e5_e5a5,
            ),
            (
                "algorithm/tbq",
                job(ps, Algorithm::Tbq { tau: 0.5 }),
                0x69f4_94c7_e240_5b49,
            ),
            (
                "algorithm/terngrad",
                job(ps, Algorithm::TernGrad { bitwidth: 4 }),
                0xd1e9_8e17_31f5_cce1,
            ),
            (
                "algorithm/dgc",
                job(ps, Algorithm::Dgc { rate: 0.001 }),
                0x4c52_4b61_8549_7f28,
            ),
            (
                "algorithm/graddrop",
                job(ps, Algorithm::GradDrop { rate: 0.01 }),
                0xf49d_d3a4_11d9_33df,
            ),
            (
                "failed/recv-timeout",
                failed(SyncFailureKind::RecvTimeout),
                0xdb8f_2f1d_a3e9_c014,
            ),
            (
                "failed/link-dead",
                failed(SyncFailureKind::LinkDead),
                0xfdfc_dc81_82c6_8a17,
            ),
            (
                "failed/straggler",
                failed(SyncFailureKind::Straggler),
                0xe6ba_0e16_dfb3_545a,
            ),
            (
                "failed/injected-crash",
                failed(SyncFailureKind::InjectedCrash),
                0x518e_8ade_e26a_edfd,
            ),
            (
                "failed/aborted",
                failed(SyncFailureKind::Aborted),
                0x0fc0_5ce2_7184_cf98,
            ),
        ];
        for (name, msg, want) in rows {
            let bytes = msg.to_bytes();
            assert_eq!(fnv1a(&bytes), want, "{name}: {:#x}", fnv1a(&bytes));
        }
        let mut w = Writer::new();
        StragglerVerdict {
            node: 4,
            peer: 1,
            waited_ns: 777,
            action: DegradeAction::Waited,
        }
        .put(&mut w);
        let bytes = w.into_vec();
        assert_eq!(fnv1a(&bytes), 0xf41f_2180_a617_09bb, "{:#x}", fnv1a(&bytes));
    }

    #[test]
    fn report_tlv_and_json_match_the_parent_commit() {
        let rep = every_field_report();
        let tlv = report_tlv(&rep);
        assert_eq!(fnv1a(&tlv), 0xcb08_639c_8480_f218, "{:#x}", fnv1a(&tlv));
        let json = rep.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"nodes":3,"wall_ns":123456,"source":{"count":10,"busy_ns":1000},"#,
                r#""encode":{"count":11,"busy_ns":1001},"decode":{"count":12,"busy_ns":1002},"#,
                r#""merge":{"count":13,"busy_ns":1003},"send":{"count":14,"busy_ns":1004},"#,
                r#""recv":{"count":15,"busy_ns":1005},"update":{"count":16,"busy_ns":1006},"#,
                r#""barrier":{"count":17,"busy_ns":1007},"local_agg_ns":777,"bytes_wire":2048,"#,
                r#""bytes_raw":8192,"messages":55,"comp_batch_launches":4,"#,
                r#""per_node_busy_ns":[11,22,33],"faults":{"injected_drops":1,"#,
                r#""injected_dups":2,"injected_reorders":3,"injected_delays":4,"#,
                r#""injected_corruptions":5,"injected_stalls":6,"retries":7,"nacks":8,"#,
                r#""duplicates_ignored":9,"corruptions_detected":10,"degraded_chunks":11,"#,
                r#""verdicts":[{"node":1,"peer":2,"waited_ns":999,"action":"skipped"},"#,
                r#"{"node":2,"peer":0,"waited_ns":888,"action":"aborted"}]},"#,
                r#""fabric_frames":60,"fabric_bytes_framed":61,"fabric_bytes_payload":62,"#,
                r#""fabric_retransmits":63,"iterations":16,"pipeline_window":5,"#,
                r#""iter_span_ns_total":424242,"membership":[{"epoch":0,"from_iter":0,"#,
                r#""members":[0,1,2]},{"epoch":1,"from_iter":9,"members":[0,2]}],"#,
                r#""evicted":[1],"compression_savings":4.000000,"pipeline_overlap":0.126989}"#,
            )
        );
        hipress_trace::json::parse(&json).expect("report json parses");
    }

    /// Every record the control channel carries survives hostile
    /// bytes (see [`check_record`]).
    #[test]
    fn records_survive_hostile_bytes() {
        let rep = every_field_report();
        check_record(&rep.source);
        check_record(&rep.faults.verdicts[0]);
        check_record(&rep.faults);
        check_record(&rep.membership[1]);
        check_record(&rep);
        check_record(&every_field_job());
        for (_, msg) in every_ctl() {
            check_record(&msg);
        }
        for error in every_error() {
            check_record(&error);
        }
        for strategy in Strategy::all() {
            check_record(&strategy);
        }
        for algorithm in [
            Algorithm::None,
            Algorithm::OneBit,
            Algorithm::Tbq { tau: 0.5 },
            Algorithm::TernGrad { bitwidth: 4 },
            Algorithm::Dgc { rate: 0.001 },
            Algorithm::GradDrop { rate: 0.01 },
        ] {
            check_record(&algorithm);
        }
    }

    /// An unknown control tag, and a presence or bool flag byte other
    /// than 0 or 1, are rejected rather than read as some value.
    #[test]
    fn bad_tags_and_flag_bytes_are_rejected() {
        for tag in [0, 10, 0xFF] {
            let e = Ctl::from_bytes(&[tag]).err();
            assert!(
                matches!(e, Some(DecodeError::BadTag { what: "ctl", .. })),
                "{e:?}"
            );
        }
        let job = |edit: fn(&mut Job)| {
            let mut j = every_field_job();
            edit(&mut j);
            Ctl::Job(Box::new(j))
        };
        let outcome_with = |edit: fn(&mut Option<Trace>, &mut Option<String>)| {
            let mut msg = outcome();
            if let Ctl::Outcome { trace, metrics, .. } = &mut msg {
                edit(trace, metrics);
            }
            msg
        };
        // A sync failure and a message error differ first at the
        // error's tag byte; a tag no category claims is rejected.
        let other_error = Ctl::Failed {
            error: Error::sim("not a sync failure"),
            flight: flight(),
            completed: 4,
        };
        let (sync, other) = (
            sync_failed(Some(1), Some(42)).to_bytes(),
            other_error.to_bytes(),
        );
        let at = sync.iter().zip(&other).position(|(a, b)| a != b).unwrap();
        for tag in [7, 0xFF] {
            let mut bytes = other.clone();
            bytes[at] = tag;
            let e = Ctl::from_bytes(&bytes).err();
            assert!(
                matches!(e, Some(DecodeError::BadTag { what: "error", .. })),
                "{e:?}"
            );
        }
        // Each pair differs first at one flag byte.
        for (i, (msg, edited)) in [
            (job(|_| {}), job(|j| j.want_trace = false)),
            (job(|_| {}), job(|j| j.want_metrics = false)),
            (job(|_| {}), job(|j| j.want_progress = false)),
            (job(|_| {}), job(|j| j.die_at_iter = None)),
            (outcome(), outcome_with(|t, _| *t = None)),
            (outcome(), outcome_with(|_, m| *m = None)),
            (sync_failed(Some(1), Some(42)), sync_failed(None, Some(42))),
            (sync_failed(Some(1), Some(42)), sync_failed(Some(1), None)),
        ]
        .into_iter()
        .enumerate()
        {
            let (mut bytes, edited) = (msg.to_bytes(), edited.to_bytes());
            let at = bytes.iter().zip(&edited).position(|(a, b)| a != b);
            bytes[at.expect("the edit moves a flag byte")] = 2;
            let e = Ctl::from_bytes(&bytes).err();
            assert!(
                matches!(e, Some(DecodeError::BadTag { .. })),
                "case {i}: {e:?}"
            );
        }
    }

    /// Every membership frame, pinned as the digests it had while it
    /// was a variant of the data mesh's `Msg` (same tags, same fields),
    /// and each checked against hostile bytes.
    #[test]
    fn member_frames_match_the_parent_commit() {
        let rows = [
            (
                "join",
                Member::Join { rank: 5, epoch: 9 },
                0xafb4_757a_c1d7_604e_u64,
            ),
            (
                "welcome",
                Member::Welcome {
                    epoch: 4,
                    from_iter: 12,
                    members: vec![0, 2, 3],
                },
                0x7c5d_b42f_e998_ccd9,
            ),
            (
                "bump/evicted",
                Member::EpochBump {
                    epoch: 6,
                    evicted: Some(1),
                    from_iter: 20,
                    members: vec![0, 2],
                },
                0xdf4a_8147_5a2a_5cd0,
            ),
            (
                "bump/rejoin",
                Member::EpochBump {
                    epoch: 7,
                    evicted: None,
                    from_iter: 24,
                    members: vec![0, 1, 2],
                },
                0xd7ad_68d5_40ae_798d,
            ),
        ];
        for (name, member, want) in rows {
            let bytes = member.to_bytes();
            assert_eq!(fnv1a(&bytes), want, "{name}: {:#x}", fnv1a(&bytes));
            assert_eq!(
                Member::from_bytes(&bytes).ok(),
                Some(member.clone()),
                "{name}"
            );
            check_record(&member);
        }
    }

    fn arbitrary_members(rng: &mut SplitMix64) -> Vec<u32> {
        let n = rng.index(9);
        (0..n).map(|_| rng.next_u32() % 64).collect()
    }

    /// A seeded arbitrary membership frame of any variant, with random
    /// epochs and member lists.
    fn arbitrary_member(rng: &mut SplitMix64) -> Member {
        match rng.index(3) {
            0 => Member::Join {
                rank: rng.next_u32(),
                epoch: rng.next_u64(),
            },
            1 => Member::Welcome {
                epoch: rng.next_u64(),
                from_iter: rng.next_u32(),
                members: arbitrary_members(rng),
            },
            _ => Member::EpochBump {
                epoch: rng.next_u64(),
                evicted: rng.bernoulli(0.5).then(|| rng.next_u32()),
                from_iter: rng.next_u32(),
                members: arbitrary_members(rng),
            },
        }
    }

    #[test]
    fn every_member_variant_round_trips() {
        let mut rng = SplitMix64::new(0x5EED_F00D);
        for _ in 0..500 {
            let member = arbitrary_member(&mut rng);
            let back = Member::from_bytes(&member.to_bytes()).unwrap();
            assert_eq!(back, member);
        }
    }

    #[test]
    fn every_member_truncation_is_a_structured_error() {
        let mut rng = SplitMix64::new(0xDEAD_5EED);
        for _ in 0..50 {
            let bytes = arbitrary_member(&mut rng).to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Member::from_bytes(&bytes[..cut]).is_err(),
                    "truncation at {cut} of {} decoded",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn member_bit_flips_never_panic() {
        let mut rng = SplitMix64::new(0xB17_F11B5);
        for _ in 0..50 {
            let bytes = arbitrary_member(&mut rng).to_bytes();
            for _ in 0..64 {
                let mut hurt = bytes.clone();
                let bit = rng.index(hurt.len() * 8);
                hurt[bit / 8] ^= 1 << (bit % 8);
                // Some frame or a structured error; never a panic.
                let _ = Member::from_bytes(&hurt);
            }
        }
    }

    /// An evicted marker other than 0 or 1, and a member count that
    /// claims more than the body holds, are structured errors.
    #[test]
    fn bad_member_bytes_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(5); // EpochBump
        w.put_u64(1);
        w.put_u8(7);
        assert!(matches!(
            Member::from_bytes(&w.into_vec()),
            Err(DecodeError::BadTag { what: "flag", .. })
        ));
        let mut w = Writer::new();
        w.put_u8(4); // Welcome
        w.put_u64(4);
        w.put_u32(0);
        w.put_u32(u32::MAX); // claims ~4 billion members, sends none
        assert!(matches!(
            Member::from_bytes(&w.into_vec()),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Member::from_bytes(&[1]),
            Err(DecodeError::BadTag { what: "member", .. })
        ));
    }
}
