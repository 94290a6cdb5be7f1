//! Epoch segments: the one process coordinator, plus the membership
//! machinery that lets a run survive whole-rank loss and re-admit
//! restarted workers mid-training.
//!
//! Every process-backend run — [`run_processes`] and
//! [`run_threaded_workers`] alike — is a sequence of **epoch
//! segments** driven by [`run_segments`]. Each segment is a complete
//! pipelined run over the current member set: every member announces
//! itself on the control channel ([`Ctl::Hello`] with a fresh mesh
//! port), takes a [`Job`] stamped with the segment's epoch and base
//! iteration, builds the TCP mesh from scratch over the segment's dense
//! slot numbering, and drives [`crate::pipeline`] for the segment's
//! share of the run. Workers keep **one control stream and one clock
//! epoch** for their whole lifetime, so clock synchronization stays
//! valid across every segment.
//!
//! What a lost rank does is [`ProcessConfig::elastic`]'s policy,
//! decided in one place. Under **fail-on-loss** (the default) the run
//! is one segment at epoch 0, and a lost or failed member fails it: a
//! silent rank becomes a synthesized `SyncFailure{LinkDead}` naming it,
//! the root cause is picked from every error, and the flight rings
//! land in the postmortem dump. Under **evict-on-loss**, survivors of
//! a rank's death report [`Ctl::Failed`] with how many segment
//! iterations they had fully retired; when every such failure blames a
//! peer, the coordinator drains to the **minimum** of those counts (the
//! drain boundary — no survivor keeps state past it, so nothing from a
//! half-dead iteration can be double-applied), removes the victim,
//! bumps the epoch, and re-plans the rest of the run over the
//! survivors. Because the pipelined protocol is bit-deterministic in
//! (member set, gradients, seed), the survivor-set continuation is
//! **bit-identical to a from-scratch run over the same member set**
//! — the epoch boundary *is* the checkpoint, and it costs nothing to
//! write.
//!
//! A restarted worker dials the same rendezvous address and opens
//! with [`Member::Join`]; the coordinator admits it only at an epoch
//! boundary, answers [`Member::Welcome`] naming the epoch it joins, and
//! tells the incumbents with [`Member::EpochBump`]. Each segment's mesh
//! is stamped with its epoch (the Hello frame's sequence field), so a
//! zombie segment's late dial can never splice into the rebuilt mesh.

use super::*;
use crate::protocol::drain_boundary;
use hipress_trace::TrackId;
use std::collections::BTreeMap;

/// How long the coordinator waits for a respawned joiner to dial in
/// at an epoch boundary.
const JOIN_DEADLINE: Duration = Duration::from_secs(10);

/// How one member's segment concluded, from the coordinator's side of
/// its control stream.
enum SegRes {
    /// The member retired every segment iteration and reported its
    /// updated chunks, keyed `(flow, part)`.
    Done {
        cells: HashMap<(u32, u32), Cell>,
        report: RuntimeReport,
        trace: Option<Trace>,
        metrics: Option<String>,
    },
    /// The segment failed under the member after `completed`
    /// segment iterations had fully retired there.
    Failed { error: Error, completed: u32 },
    /// The member's control stream closed without a report — it died.
    Lost,
}

/// Reads one member's control stream until it yields a segment result
/// (plus the member's flight ring, when it sent one), republishing
/// interleaved live-progress frames into the hub.
fn collect_member(
    stream: &mut TcpStream,
    progress: Option<&hipress_obs::Telemetry>,
) -> (SegRes, Option<Vec<FlightEvent>>) {
    let fail = |error| SegRes::Failed {
        error,
        completed: 0,
    };
    if let Err(e) = stream.set_read_timeout(Some(RUN_DEADLINE)) {
        return (fail(ctl_io(e)), None);
    }
    loop {
        match read_ctl(stream) {
            Ok(Ctl::Progress { rec }) => {
                if let Some(t) = progress {
                    t.publish(rec);
                }
            }
            Ok(Ctl::Outcome {
                cells,
                report,
                trace,
                metrics,
                flight,
            }) => {
                let cells = cells
                    .into_iter()
                    .map(|(f, p, v)| {
                        let cell = Cell {
                            acc: v.into(),
                            updated: true,
                            ..Cell::default()
                        };
                        ((f, p), cell)
                    })
                    .collect();
                let done = SegRes::Done {
                    cells,
                    report,
                    trace,
                    metrics,
                };
                return (done, Some(flight));
            }
            Ok(Ctl::Failed {
                error,
                flight,
                completed,
            }) => return (SegRes::Failed { error, completed }, Some(flight)),
            Ok(_) => return (fail(ctl_io("worker sent an unexpected message")), None),
            // EOF or timeout without a report: the worker died
            // mid-protocol, and its ring died with it.
            Err(_) => return (SegRes::Lost, None),
        }
    }
}

/// The blame rule: the slot a worker in `slot` blames for its failure.
/// The fabric names a lost peer as the failure's `node` (the observer
/// as `peer`); the FT layer names itself as `node` and the
/// unresponsive peer as `peer`. `None` when the failure is not a sync
/// failure, is only the echo of a peer's abort, or blames nobody else
/// — failures that no eviction can cure.
fn blamed_peer(slot: usize, error: &Error) -> Option<usize> {
    let f = error
        .as_sync()
        .filter(|f| f.kind != SyncFailureKind::Aborted)?;
    if f.node != slot {
        Some(f.node)
    } else {
        f.peer.filter(|&p| p != slot)
    }
}

/// The coordinator's side of the control plane: the rendezvous
/// listener, and per member, keyed by global rank, its control stream
/// (ascending rank is slot order), latest clock sync, and mesh port
/// for the upcoming segment. Dropping it releases every member it
/// still holds and closes the listener, refusing late dialers.
struct Roster {
    listener: TcpListener,
    streams: BTreeMap<u32, TcpStream>,
    syncs: HashMap<u32, ClockSync>,
    ports: HashMap<u32, u16>,
}

impl Roster {
    /// Sends every held member `Shutdown` and closes its stream: only
    /// now may workers drop their mesh links and exit.
    fn release(&mut self) {
        for (_, mut stream) in std::mem::take(&mut self.streams) {
            let _ = write_ctl(&mut stream, &Ctl::Shutdown);
        }
    }
}

impl Drop for Roster {
    fn drop(&mut self) {
        self.release();
    }
}

/// Accepts the next worker to dial the nonblocking rendezvous
/// `listener`, giving it `read_timeout` per read. `idle` runs between
/// polls and ends the wait by failing — at its deadline, or sooner.
fn accept_next(
    listener: &TcpListener,
    read_timeout: Duration,
    mut idle: impl FnMut() -> Result<()>,
) -> Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(ctl_io)?;
                stream.set_nodelay(true).map_err(ctl_io)?;
                stream
                    .set_read_timeout(Some(read_timeout))
                    .map_err(ctl_io)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                idle()?;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(ctl_io(e)),
        }
    }
}

/// Accepts the initial full-membership rendezvous: every rank dials
/// in, says Hello, and answers a clock-probe burst. A worker that exits
/// before checking in fails the rendezvous at once, not at the
/// deadline.
fn accept_initial(
    roster: &mut Roster,
    launcher: &mut Launcher,
    clock_epoch: Instant,
) -> Result<()> {
    let nodes = launcher.nodes;
    roster.listener.set_nonblocking(true).map_err(ctl_io)?;
    let hard_deadline = Instant::now() + CONNECT_DEADLINE;
    while roster.streams.len() < nodes {
        let mut stream = accept_next(&roster.listener, CONNECT_DEADLINE, || {
            for (rank, worker) in launcher.workers.iter_mut().enumerate() {
                if let Some(how) = worker
                    .exited()
                    .filter(|_| !roster.streams.contains_key(&(rank as u32)))
                {
                    return Err(Error::sim(format!(
                        "worker {rank} exited during rendezvous ({how})"
                    )));
                }
            }
            if Instant::now() >= hard_deadline {
                return Err(ctl_io(format!(
                    "rendezvous timed out with {} of {nodes} workers",
                    roster.streams.len()
                )));
            }
            Ok(())
        })?;
        let Ctl::Hello { rank, mesh_port } = read_ctl(&mut stream)? else {
            return Err(ctl_io("worker spoke before saying Hello"));
        };
        if rank as usize >= nodes || roster.streams.contains_key(&rank) {
            return Err(ctl_io(format!("bad or duplicate Hello from rank {rank}")));
        }
        roster
            .syncs
            .insert(rank, probe_clock(&mut stream, clock_epoch)?);
        roster.ports.insert(rank, mesh_port);
        roster.streams.insert(rank, stream);
    }
    Ok(())
}

/// Accepts one respawned joiner at an epoch boundary: its connection
/// opens with [`Member::Join`]; answer with [`Member::Welcome`] naming the
/// epoch, handoff iteration, and member set it joins.
fn admit_joiner(
    roster: &mut Roster,
    expect_rank: u32,
    current_epoch: u64,
    welcome: &Member,
) -> Result<()> {
    let hard_deadline = Instant::now() + JOIN_DEADLINE;
    let mut stream = accept_next(&roster.listener, JOIN_DEADLINE, || {
        if Instant::now() >= hard_deadline {
            return Err(ctl_io(format!(
                "rejoining rank {expect_rank} never dialed in"
            )));
        }
        Ok(())
    })?;
    let Ctl::Member(Member::Join { rank, epoch }) = read_ctl(&mut stream)? else {
        return Err(ctl_io("joiner spoke before asking to Join"));
    };
    if rank != expect_rank {
        return Err(ctl_io(format!(
            "Join from rank {rank}, expected {expect_rank}"
        )));
    }
    // The stale-epoch rule, rendezvous-plane edition: a joiner claiming
    // to have seen an epoch the run has not reached is lying about the
    // bump order.
    if epoch > current_epoch {
        return Err(ctl_io(format!(
            "Join from rank {rank} claims future epoch {epoch} (current {current_epoch})"
        )));
    }
    write_ctl(&mut stream, &Ctl::Member(welcome.clone()))?;
    roster.streams.insert(rank, stream);
    Ok(())
}

/// Emits the membership-epoch bookkeeping every boundary shares: the
/// report record, the trace instants (the same `membership` category
/// [`RuntimeReport::from_trace`] rebuilds the records from), and the
/// telemetry hub's latched `MembershipChange` alert.
#[allow(clippy::too_many_arguments)]
fn record_epoch(
    report: &mut RuntimeReport,
    tracer: Option<&Tracer>,
    mem_track: Option<TrackId>,
    progress: Option<&hipress_obs::Telemetry>,
    epoch: u64,
    from_iter: u32,
    members: &[u32],
    evicted: &[u32],
    changed_rank: u32,
) {
    report.membership.push(crate::report::EpochRecord {
        epoch,
        from_iter: u64::from(from_iter),
        members: members.to_vec(),
    });
    report.evicted.extend_from_slice(evicted);
    if let (Some(tr), Some(track)) = (tracer, mem_track) {
        let ts = tr.now_ns();
        for &r in evicted {
            tr.instant(track, "evict", "membership", ts, &[("rank", u64::from(r))]);
        }
        let mask = members
            .iter()
            .filter(|&&r| r < 64)
            .fold(0u64, |m, &r| m | (1 << r));
        tr.instant(
            track,
            "epoch",
            "membership",
            ts,
            &[
                ("epoch", epoch),
                ("from_iter", u64::from(from_iter)),
                ("members_mask", mask),
            ],
        );
    }
    if let Some(t) = progress {
        if epoch > 0 {
            t.bump_epoch(epoch, changed_rank, from_iter);
        }
    }
}

/// The coordinator, behind both [`run_processes`] and
/// [`run_threaded_workers`]: validates the job and builds its graph —
/// so a bad config fails with no worker alive — starts the workers
/// (re-executing `binary`, or as threads when `None`), then runs
/// `pcfg.iterations` total iterations one epoch segment at a time:
/// rendezvous, dispatch, collect, and either assemble the final
/// segment's flows or cross an epoch boundary. Scripted crashes fire
/// where `pconf.membership` puts them; `pconf.elastic` decides whether
/// a loss fails the run or shrinks the membership, and due rejoins grow
/// it back. Every worker is released and reaped on the way out,
/// whatever the outcome.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_segments(
    binary: Option<PathBuf>,
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    let total = pcfg.iterations;
    validate_grads(worker_grads)?;
    validate(pcfg)?;
    validate_membership(pconf, nodes, total)?;
    let grad_lens: Vec<u32> = worker_grads[0].iter().map(|t| t.len() as u32).collect();
    let graph = build_graph(strategy, algorithm, partitions, &grad_lens, nodes)?;
    let (tracer, progress) = (instruments.tracer, instruments.progress);

    // Declared in this order so the roster drops first: members are
    // released before the launcher reaps them.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
    let mut launcher = Launcher {
        connect: listener.local_addr().map_err(ctl_io)?.to_string(),
        binary,
        nodes,
        workers: Vec::with_capacity(nodes),
    };
    let mut roster = Roster {
        listener,
        streams: BTreeMap::new(),
        syncs: HashMap::new(),
        ports: HashMap::new(),
    };

    // The coordinator's clock for offset probes. With a tracer it is
    // the tracer's epoch, so corrected worker timestamps land
    // directly on the merged trace's timeline.
    let clock_epoch = tracer.map(Tracer::epoch).unwrap_or_else(Instant::now);
    for rank in 0..nodes as u32 {
        launcher.launch(rank, false)?;
    }
    let run_start_ns = tracer.map(Tracer::now_ns);
    let started = Instant::now();
    // Only an evict-on-loss run keeps a membership timeline.
    let mem_track = tracer
        .filter(|_| pconf.elastic)
        .map(|t| t.thread_track("membership"));

    let mut members: Vec<u32> = (0..nodes as u32).collect();
    let mut epoch: u64 = 0;
    let mut from: u32 = 0;
    let mut pending_crashes: Vec<(u32, u32)> = pconf.membership.crashes.clone();
    // Rejoins in due order, each clamped so it still has a boundary
    // before the run ends.
    let mut pending_rejoins: Vec<(u32, u32)> = pconf
        .membership
        .rejoins
        .iter()
        .map(|&(r, due)| (r, due.min(total - 1)))
        .collect();
    pending_rejoins.sort_by_key(|&(_, due)| due);

    let mut report = RuntimeReport {
        nodes,
        iterations: u64::from(total),
        pipeline_window: u64::from(pcfg.window),
        per_node_busy_ns: vec![0; nodes],
        ..Default::default()
    };

    accept_initial(&mut roster, &mut launcher, clock_epoch)?;
    // Who the last epoch boundary evicted and admitted.
    let (mut evicted, mut joined): (Vec<u32>, Vec<u32>) = Default::default();
    loop {
        if pconf.elastic {
            let changed = evicted.first().or(joined.first()).copied().unwrap_or(0);
            record_epoch(
                &mut report,
                tracer,
                mem_track,
                progress,
                epoch,
                from,
                &members,
                &evicted,
                changed,
            );
        }

        // ---- Plan this segment ------------------------------------
        // Run to the end unless a rejoin comes due first: admission
        // happens only at epoch boundaries, so the segment is cut
        // short to create one.
        let seg_end = pending_rejoins
            .first()
            .map_or(total, |&(_, due)| due.max(from + 1).min(total));
        let seg_iters = seg_end - from;

        // ---- Rendezvous over the current member set ---------------
        // Every member re-announces with a fresh mesh port and takes a
        // fresh clock-probe burst (the initial rendezvous already
        // consumed both for epoch 0).
        if epoch > 0 {
            for &g in &members {
                let stream = roster
                    .streams
                    .get_mut(&g)
                    .expect("live member has a control stream");
                stream
                    .set_read_timeout(Some(CONNECT_DEADLINE))
                    .map_err(ctl_io)?;
                let Ok(Ctl::Hello { rank, mesh_port }) = read_ctl(stream) else {
                    return Err(ctl_io(format!(
                        "rank {g} did not re-announce at epoch {epoch}"
                    )));
                };
                if rank != g {
                    return Err(ctl_io(format!("rank {g} re-announced as {rank}")));
                }
                roster.syncs.insert(g, probe_clock(stream, clock_epoch)?);
                roster.ports.insert(g, mesh_port);
            }
        }

        // ---- Dispatch: the spec plus each member's own tensors -----
        let mesh_ports: Vec<u16> = members.iter().map(|g| roster.ports[g]).collect();
        for (slot, &g) in members.iter().enumerate() {
            // Arm the earliest scripted crash for this rank that lands
            // inside the segment, translated to a segment-local count.
            let die_at_iter = pending_crashes
                .iter()
                .filter(|&&(r, i)| r == g && i >= from && i < seg_end)
                .map(|&(_, i)| i - from)
                .min();
            let job = Job {
                strategy,
                algorithm,
                partitions: partitions as u32,
                seed,
                nodes: members.len() as u32,
                rank: slot as u32,
                iterations: seg_iters,
                window: pcfg.window,
                want_trace: tracer.is_some(),
                want_metrics: instruments.metrics.is_some(),
                want_progress: progress.is_some(),
                grad_lens: grad_lens.clone(),
                grads: worker_grads[g as usize]
                    .iter()
                    .map(|t| t.as_slice().to_vec())
                    .collect(),
                mesh_ports: mesh_ports.clone(),
                epoch,
                base_iter: from,
                die_at_iter,
            };
            #[cfg(test)]
            let job = tests::tampered(job);
            let stream = roster.streams.get_mut(&g).expect("member stream");
            write_ctl(stream, &Ctl::Job(Box::new(job)))?;
        }
        if let Some(t) = progress {
            // Every member just took a job; seed its heartbeat so
            // /healthz shows it before its first iteration retires.
            for &g in &members {
                t.beat(g);
            }
        }

        // ---- Collect ----------------------------------------------
        debug_assert!(roster.streams.keys().eq(members.iter()));
        let collected: Vec<(SegRes, Option<Vec<FlightEvent>>)> = if progress.is_some() {
            // One collector per member, so live-progress frames keep
            // draining while slower members still run — a sequential
            // reader would let a fast member's frames back up in
            // kernel buffers.
            std::thread::scope(|s| {
                let handles: Vec<_> = roster
                    .streams
                    .values_mut()
                    .map(|stream| s.spawn(move || collect_member(stream, progress)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            let error = Error::sim("a collector thread panicked");
                            (
                                SegRes::Failed {
                                    error,
                                    completed: 0,
                                },
                                None,
                            )
                        })
                    })
                    .collect()
            })
        } else {
            roster
                .streams
                .values_mut()
                .map(|stream| collect_member(stream, None))
                .collect()
        };
        let mut results = Vec::with_capacity(members.len());
        let mut flights = Vec::new();
        for (&g, (res, flight)) in members.iter().zip(collected) {
            if let Some(events) = flight {
                flights.push(RankFlight {
                    rank: g,
                    sync: roster.syncs[&g],
                    events,
                });
            }
            results.push(res);
        }
        let lost: Vec<u32> = members
            .iter()
            .zip(&results)
            .filter(|(_, r)| matches!(r, SegRes::Lost))
            .map(|(&g, _)| g)
            .collect();
        let clean = results.iter().all(|r| matches!(r, SegRes::Done { .. }));

        // ---- The loss policy --------------------------------------
        // Fail-on-loss fails the run on any loss or failure.
        // Evict-on-loss survives a loss when every failure that came
        // with it blames a peer.
        let survivable = pconf.elastic
            && !lost.is_empty()
            && results.iter().enumerate().all(|(slot, r)| match r {
                SegRes::Failed { error, .. } => blamed_peer(slot, error).is_some(),
                _ => true,
            });
        if !clean && !survivable {
            let errors = members.iter().zip(results).filter_map(|(&g, r)| match r {
                SegRes::Done { .. } => None,
                SegRes::Failed { error, .. } => Some(error),
                // The survivors' rings will show its silence.
                SegRes::Lost => Some(Error::sync_at(
                    SyncFailureKind::LinkDead,
                    g as usize,
                    "worker process exited without reporting an outcome",
                )),
            });
            let worst = root_cause(errors).expect("at least one error");
            if let Some(path) = &pconf.flight_dump {
                let dump = PostmortemDump {
                    magic: PostmortemMagic,
                    nodes: nodes as u32,
                    failed_node: worst
                        .as_sync()
                        .map(|f| f.node as u32)
                        .unwrap_or(UNKNOWN_NODE),
                    detail: worst.to_string(),
                    ranks: flights,
                };
                if let Err(e) = std::fs::write(path, dump.to_bytes()) {
                    eprintln!(
                        "hipress: could not write flight dump {}: {e}",
                        path.display()
                    );
                }
            }
            return Err(worst);
        }

        if clean {
            let last = seg_end == total;
            if last {
                // Release the mesh before the fold: workers tear down
                // while the outcome is assembled.
                report.wall_ns = started.elapsed().as_nanos() as u64;
                roster.release();
            }
            let mut cells_per_slot = Vec::with_capacity(members.len());
            for (&g, r) in members.iter().zip(results) {
                let SegRes::Done {
                    cells,
                    report: node_report,
                    trace,
                    metrics,
                } = r
                else {
                    unreachable!("a clean segment holds only reports");
                };
                report.absorb(&node_report);
                report.per_node_busy_ns[g as usize] += node_report.total_busy_ns();
                if let (Some(tracer), Some(t)) = (tracer, &trace) {
                    // Stitch this rank's timeline into the global
                    // trace, shifted by its measured epoch offset, and
                    // record the alignment so validators can honor its
                    // uncertainty.
                    replay_into(tracer, t, &roster.syncs[&g]);
                    record_clock_meta(tracer, g as usize, &roster.syncs[&g]);
                }
                if let (Some(scope), Some(json)) = (instruments.metrics, &metrics) {
                    let snap = MetricsSnapshot::from_json(json)
                        .map_err(|e| ctl_io(format!("rank {g} metrics snapshot: {e}")))?;
                    scope.absorb_snapshot(&snap);
                }
                cells_per_slot.push(cells);
            }
            if last {
                // The final member set's graph lays the cells out; no
                // tensor is needed for that.
                let layout = if members.len() == nodes {
                    FlowLayout::new(&graph, nodes)
                } else {
                    let n = members.len();
                    FlowLayout::new(
                        &build_graph(strategy, algorithm, partitions, &grad_lens, n)?,
                        n,
                    )
                };
                record_run_span(
                    tracer,
                    run_start_ns,
                    report.wall_ns,
                    nodes,
                    u64::from(total),
                    u64::from(pcfg.window),
                    report.membership.len() as u64,
                );
                if let Some(scope) = instruments.metrics {
                    record_run_metrics(scope, &report);
                }
                return Ok(RunOutcome {
                    flows: layout.assemble(&cells_per_slot)?,
                    report,
                });
            }
            // A deliberate boundary: the segment was cut short so a
            // rejoin could be admitted. The retired work stands.
            from = seg_end;
        } else {
            // ---- A rank died: drain, evict, re-plan ---------------
            // The segment's result stands at the minimum fully-retired
            // count across survivors; everything past it re-runs next
            // epoch, which is safe because iterations are idempotent
            // in (members, gradients, seed). The segment's partial
            // reports are discarded.
            let seg_start = from;
            let completions: Vec<u32> = results
                .iter()
                .filter_map(|r| match r {
                    SegRes::Done { .. } => Some(seg_iters),
                    SegRes::Failed { completed, .. } => Some(*completed),
                    SegRes::Lost => None,
                })
                .collect();
            from = seg_start + drain_boundary(&completions);
            for &d in &lost {
                roster.streams.remove(&d);
                roster.syncs.remove(&d);
                roster.ports.remove(&d);
                // The armed crash fired; retire its script entry so a
                // later rejoin can crash the same rank again.
                if let Some(i) = pending_crashes
                    .iter()
                    .position(|&(r, i)| r == d && i >= seg_start && i < seg_end)
                {
                    pending_crashes.remove(i);
                }
            }
            members.retain(|g| !lost.contains(g));
            if members.len() < 2 {
                return Err(Error::config(format!(
                    "elastic run cannot continue: {} survivor(s) after evicting {lost:?}",
                    members.len()
                )));
            }
        }

        // ---- Epoch boundary: admit due rejoins, bump the rest -----
        epoch += 1;
        joined.clear();
        while let Some(&(r, due)) = pending_rejoins.first() {
            // A rank lost in this very segment rejoins at a later
            // boundary; the segment-planning cut above creates one.
            if due > from || lost.contains(&r) {
                break;
            }
            pending_rejoins.remove(0);
            members.push(r);
            joined.push(r);
        }
        members.sort_unstable();
        let welcome = Member::Welcome {
            epoch,
            from_iter: from,
            members: members.clone(),
        };
        for &r in &joined {
            launcher.launch(r, true)?;
            admit_joiner(&mut roster, r, epoch, &welcome)?;
        }
        let bump = Ctl::Member(Member::EpochBump {
            epoch,
            evicted: lost.first().copied(),
            from_iter: from,
            members: members.clone(),
        });
        // The joiners' Welcome already carries the epoch.
        for &g in members.iter().filter(|g| !joined.contains(g)) {
            let stream = roster.streams.get_mut(&g).expect("member stream");
            write_ctl(stream, &bump)?;
        }
        evicted = lost;
    }
}

/// The joiner's rendezvous: dial the coordinator, ask to [`Member::Join`]
/// as `rank`, and block until the [`Member::Welcome`] that admits us at
/// the next epoch boundary. Returns the control stream (ready for the
/// normal per-segment protocol) and the member set joined.
pub(super) fn attach(connect: &str, rank: usize) -> Result<(TcpStream, Vec<u32>)> {
    let mut ctl = TcpStream::connect(connect)
        .map_err(|e| ctl_io(format!("node {rank}: dial coordinator {connect}: {e}")))?;
    ctl.set_nodelay(true).map_err(ctl_io)?;
    write_ctl(
        &mut ctl,
        &Ctl::Member(Member::Join {
            rank: rank as u32,
            epoch: 0,
        }),
    )?;
    // Admission happens only at an epoch boundary, which can be most
    // of a segment away; wait generously.
    ctl.set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(ctl_io)?;
    let members = match read_ctl(&mut ctl)? {
        Ctl::Member(Member::Welcome { members, .. }) => members,
        _ => return Err(ctl_io(format!("node {rank}: expected a Welcome"))),
    };
    if !members.contains(&(rank as u32)) {
        return Err(ctl_io(format!(
            "node {rank}: welcomed into a membership that excludes it"
        )));
    }
    Ok((ctl, members))
}

/// Entry point for the `hipress node --join` subcommand: a restarted
/// worker re-attaching to a running elastic job. Dials `connect`,
/// asks to join as `rank`, and on [`Member::Welcome`] enters the normal
/// per-segment worker protocol.
///
/// # Errors
///
/// Transport or protocol failures talking to the coordinator or the
/// mesh. Exits the process with code 13 when a scripted crash fires.
pub fn join_main(connect: &str, rank: usize) -> Result<()> {
    exit_if_killed(rank, run_worker(connect, rank, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::member_slot;
    use std::cell::Cell;

    thread_local! {
        /// How a coordinator on this thread rewrites every job it
        /// dispatches; `None` sends them as built.
        static TAMPER: Cell<Option<fn(&mut Job)>> = const { Cell::new(None) };
    }

    /// `job` as this thread's tamper rewrites it.
    pub(super) fn tampered(mut job: Job) -> Job {
        if let Some(tamper) = TAMPER.get() {
            tamper(&mut job);
        }
        job
    }

    /// A worker handed a job it cannot set up reports why: under
    /// either loss policy the run fails with that setup error, its
    /// category kept and the worker named — not as the mesh its peers
    /// then could not form, and not by evicting the worker that said
    /// so.
    #[test]
    fn a_job_a_worker_cannot_set_up_fails_naming_worker_and_cause() {
        TAMPER.set(Some(|job| {
            if job.rank == 1 {
                job.partitions = 0;
            }
        }));
        let grads: Vec<Vec<Tensor>> = (0..3)
            .map(|w| vec![Tensor::from_vec(vec![w as f32; 64])])
            .collect();
        for elastic in [false, true] {
            let pconf = ProcessConfig {
                elastic,
                ..ProcessConfig::default()
            };
            let err = run_threaded_workers(
                Strategy::CaSyncPs,
                Algorithm::None,
                1,
                &grads,
                0,
                &PipelineConfig::default(),
                &pconf,
                Instruments::default(),
            )
            .unwrap_err();
            let text = err.to_string();
            assert!(matches!(err, Error::Config(_)), "elastic {elastic}: {text}");
            assert!(
                text.contains("rank 1 could not set up its job")
                    && text.contains("'g0' has zero partitions"),
                "elastic {elastic}: {text}"
            );
        }
        TAMPER.set(None);
    }

    /// Asserts the slot-reassignment rule the dispatch loop relies on:
    /// the slot a member gets in the Job equals the pure
    /// [`member_slot`] decision over the sorted member list.
    #[test]
    fn dispatch_slots_match_the_pure_reassignment_rule() {
        let members = [0u32, 2, 3, 5];
        for (slot, &g) in members.iter().enumerate() {
            assert_eq!(member_slot(&members, g), Some(slot as u32));
        }
        assert_eq!(member_slot(&members, 1), None);
    }
}
