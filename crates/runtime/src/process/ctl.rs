//! The coordinator-worker control protocol. Each worker's control
//! stream carries [`Ctl`] frames: a `u32` length prefix, a tag byte,
//! then the message's fields. The fields are
//! [`hipress_fabric::record!`] records and other [`Field`] values; only
//! [`IterRecord`] and [`Error`], which live in crates that cannot see
//! the record schema, keep hand-written codecs here.

use super::Job;
use crate::engine::Msg;
use crate::observe::{get_trace, put_trace};
use crate::report::RuntimeReport;
use hipress_fabric::codec::{read_exact_vec, write_all_vectored, Field};
use hipress_fabric::{DecodeError, FlightEvent, Reader, WireMsg, Writer};
use hipress_obs::IterRecord;
use hipress_trace::Trace;
use hipress_util::{Error, Result, SyncFailure, SyncFailureKind};
use std::io::Read;
use std::net::TcpStream;

/// One control message.
pub(super) enum Ctl {
    /// Worker → coordinator: `rank` is listening for mesh peers on
    /// `mesh_port`.
    Hello { rank: u32, mesh_port: u16 },
    /// Coordinator → worker: the job to run.
    Job(Box<Job>),
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
    },
    /// Worker → coordinator: the segment failed under this worker.
    /// The flight ring rides along so the postmortem sees the failing
    /// rank's view; `completed` is how many segment-local iterations
    /// had fully retired here, so an evict-on-loss coordinator can
    /// pick the drain boundary.
    Failed {
        error: Error,
        flight: Vec<FlightEvent>,
        completed: u32,
    },
    /// Coordinator → worker: all outcomes collected; tear the mesh
    /// down and exit.
    Shutdown,
    /// Coordinator → worker: clock probe carrying the coordinator's
    /// clock reading `t1` (NTP-style offset estimation during
    /// rendezvous).
    ClockPing { t1: u64 },
    /// Worker → coordinator: `t1` echoed back plus the worker's own
    /// clock reading `t2` at the moment of the answer.
    ClockPong { t1: u64, t2: u64 },
    /// Worker → coordinator: one iteration retired (live telemetry).
    /// Sent between `Job` and `Outcome`/`Failed` when the job asked
    /// for progress; the coordinator restamps `ts_ns` on arrival so
    /// every rank's records share its one clock.
    Progress { rec: IterRecord },
    /// Rendezvous-plane frame in either direction, reusing the
    /// [`Msg`] wire codec: `Join` (joiner → coordinator),
    /// `Welcome` (coordinator → joiner), `EpochBump` (coordinator →
    /// surviving workers between segments).
    Member(Msg),
}

const CTL_HELLO: u8 = 1;
const CTL_JOB: u8 = 2;
const CTL_OUTCOME: u8 = 3;
const CTL_FAILED: u8 = 4;
const CTL_SHUTDOWN: u8 = 5;
const CTL_CLOCK_PING: u8 = 6;
const CTL_CLOCK_PONG: u8 = 7;
const CTL_PROGRESS: u8 = 8;
const CTL_MEMBER: u8 = 9;

/// Encodes every field of an [`IterRecord`]. The exhaustive
/// destructuring makes adding a field without extending this codec a
/// compile error.
fn put_iter_record(w: &mut Writer, rec: &IterRecord) {
    let IterRecord {
        node,
        iter,
        ts_ns,
        span_ns,
        comp_ns,
        commu_ns,
        bytes_wire,
        messages,
        retransmits,
        faults,
        window,
        epoch,
    } = rec;
    w.put_u32(*node);
    w.put_u32(*iter);
    for v in [
        ts_ns,
        span_ns,
        comp_ns,
        commu_ns,
        bytes_wire,
        messages,
        retransmits,
        faults,
    ] {
        w.put_u64(*v);
    }
    w.put_u32(*window);
    w.put_u64(*epoch);
}

fn get_iter_record(r: &mut Reader<'_>) -> std::result::Result<IterRecord, DecodeError> {
    Ok(IterRecord {
        node: Field::get(r)?,
        iter: Field::get(r)?,
        ts_ns: Field::get(r)?,
        span_ns: Field::get(r)?,
        comp_ns: Field::get(r)?,
        commu_ns: Field::get(r)?,
        bytes_wire: Field::get(r)?,
        messages: Field::get(r)?,
        retransmits: Field::get(r)?,
        faults: Field::get(r)?,
        window: Field::get(r)?,
        epoch: Field::get(r)?,
    })
}

fn put_error(w: &mut Writer, e: &Error) {
    let Error::Sync(f) = e else {
        // Other categories travel as their message.
        false.put(w);
        e.to_string().put(w);
        return;
    };
    true.put(w);
    w.put_u8(match f.kind {
        SyncFailureKind::RecvTimeout => 0,
        SyncFailureKind::LinkDead => 1,
        SyncFailureKind::Straggler => 2,
        SyncFailureKind::InjectedCrash => 3,
        SyncFailureKind::Aborted => 4,
    });
    f.node.put(w);
    f.peer.put(w);
    f.task.put(w);
    f.detail.put(w);
}

fn get_error(r: &mut Reader<'_>) -> std::result::Result<Error, DecodeError> {
    if !bool::get(r)? {
        return Ok(Error::sim(r.str()?));
    }
    let kind = match r.u8()? {
        0 => SyncFailureKind::RecvTimeout,
        1 => SyncFailureKind::LinkDead,
        2 => SyncFailureKind::Straggler,
        3 => SyncFailureKind::InjectedCrash,
        4 => SyncFailureKind::Aborted,
        t => {
            return Err(DecodeError::BadTag {
                what: "failure kind",
                tag: u64::from(t),
            })
        }
    };
    Ok(Error::sync(SyncFailure {
        kind,
        node: Field::get(r)?,
        peer: Field::get(r)?,
        task: Field::get(r)?,
        detail: Field::get(r)?,
    }))
}

impl WireMsg for Ctl {
    fn encode(&self, w: &mut Writer) {
        match self {
            Ctl::Hello { rank, mesh_port } => {
                w.put_u8(CTL_HELLO);
                rank.put(w);
                mesh_port.put(w);
            }
            Ctl::Job(job) => {
                w.put_u8(CTL_JOB);
                job.put(w);
            }
            Ctl::Outcome {
                cells,
                report,
                trace,
                metrics,
                flight,
            } => {
                w.put_u8(CTL_OUTCOME);
                cells.put(w);
                report.put(w);
                trace.is_some().put(w);
                if let Some(t) = trace {
                    put_trace(w, t);
                }
                metrics.put(w);
                flight.put(w);
            }
            Ctl::Failed {
                error,
                flight,
                completed,
            } => {
                w.put_u8(CTL_FAILED);
                put_error(w, error);
                flight.put(w);
                completed.put(w);
            }
            Ctl::Shutdown => w.put_u8(CTL_SHUTDOWN),
            Ctl::ClockPing { t1 } => {
                w.put_u8(CTL_CLOCK_PING);
                t1.put(w);
            }
            Ctl::ClockPong { t1, t2 } => {
                w.put_u8(CTL_CLOCK_PONG);
                t1.put(w);
                t2.put(w);
            }
            Ctl::Progress { rec } => {
                w.put_u8(CTL_PROGRESS);
                put_iter_record(w, rec);
            }
            Ctl::Member(m) => {
                w.put_u8(CTL_MEMBER);
                m.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        match r.u8()? {
            CTL_HELLO => Ok(Ctl::Hello {
                rank: Field::get(r)?,
                mesh_port: Field::get(r)?,
            }),
            CTL_JOB => Ok(Ctl::Job(Box::new(Job::get(r)?))),
            CTL_OUTCOME => Ok(Ctl::Outcome {
                cells: Field::get(r)?,
                report: Field::get(r)?,
                trace: bool::get(r)?.then(|| get_trace(r)).transpose()?,
                metrics: Field::get(r)?,
                flight: Field::get(r)?,
            }),
            CTL_FAILED => Ok(Ctl::Failed {
                error: get_error(r)?,
                flight: Field::get(r)?,
                completed: Field::get(r)?,
            }),
            CTL_SHUTDOWN => Ok(Ctl::Shutdown),
            CTL_CLOCK_PING => Ok(Ctl::ClockPing { t1: Field::get(r)? }),
            CTL_CLOCK_PONG => Ok(Ctl::ClockPong {
                t1: Field::get(r)?,
                t2: Field::get(r)?,
            }),
            CTL_PROGRESS => Ok(Ctl::Progress {
                rec: get_iter_record(r)?,
            }),
            CTL_MEMBER => Ok(Ctl::Member(Msg::decode(r)?)),
            t => Err(DecodeError::BadTag {
                what: "ctl",
                tag: u64::from(t),
            }),
        }
    }
}

/// Control frames are a plain u32 length prefix + [`WireMsg`] body —
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
    use crate::engine::RuntimeConfig;
    use crate::report::{DegradeAction, EpochRecord, FaultReport, PrimStat, StragglerVerdict};
    use hipress_compress::Algorithm;
    use hipress_core::Strategy;
    use hipress_fabric::codec::check_record;
    use std::time::Duration;

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
            config: RuntimeConfig {
                batch_compression: false,
                comp_batch_max_task_bytes: 12_345,
                inbox_timeout: Duration::from_millis(1_500),
                ft_min_wait: Duration::from_micros(333),
                ft_max_wait: Duration::from_millis(44),
                ft_heartbeat: Duration::from_millis(55),
            },
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
                Ctl::Member(Msg::Welcome {
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
            0x5c25_0536_cd53_a3c2,
            0xc410_833f_4e53_4ed3,
            0x99ee_5e96_349c_90dd,
            0xf68e_9cfa_6d47_4206,
            0xeeb5_f3e1_bda8_72e5,
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
            match &back {
                // Other error categories travel as their rendered
                // message, so they come back as a message error.
                Ctl::Failed { error, .. } if error.as_sync().is_none() => {
                    assert!(error.to_string().contains("node 2 wedged"), "{error}");
                }
                _ => assert_eq!(back.to_bytes(), bytes, "{name}"),
            }
        }
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
        check_record(&every_field_job().config);
        check_record(&every_field_job());
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
        let other_error = Ctl::Failed {
            error: Error::sim("not a sync failure"),
            flight: flight(),
            completed: 4,
        };
        // Each pair differs first at one flag byte.
        for (i, (msg, edited)) in [
            (job(|_| {}), job(|j| j.config.batch_compression = true)),
            (job(|_| {}), job(|j| j.want_trace = false)),
            (job(|_| {}), job(|j| j.want_metrics = false)),
            (job(|_| {}), job(|j| j.want_progress = false)),
            (job(|_| {}), job(|j| j.die_at_iter = None)),
            (outcome(), outcome_with(|t, _| *t = None)),
            (outcome(), outcome_with(|_, m| *m = None)),
            (sync_failed(Some(1), Some(42)), other_error),
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
}
