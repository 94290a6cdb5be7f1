//! Elastic membership for multi-process CaSync-RT: survive whole-rank
//! loss by re-planning over the survivors, and re-admit restarted
//! workers mid-training.
//!
//! An elastic run is a sequence of **epoch segments**. Each segment is
//! a complete pipelined run over the current member set: every member
//! re-announces on the control channel ([`Ctl::Hello`] with a fresh
//! mesh port), takes a [`Job`] stamped with the segment's epoch and
//! base iteration, rebuilds the TCP mesh from scratch over the
//! segment's dense slot numbering, and drives [`crate::pipeline`] for
//! the segment's share of the run. Workers keep **one control stream
//! and one clock epoch** for their whole lifetime, so clock
//! synchronization stays valid across every segment.
//!
//! When a rank dies mid-segment, survivors report [`Ctl::Halted`]
//! with how many segment iterations they had fully retired; the
//! coordinator drains to the **minimum** of those counts (the drain
//! boundary — no survivor keeps state past it, so nothing from a
//! half-dead iteration can be double-applied), removes the victim,
//! bumps the epoch, and re-plans the rest of the run over the
//! survivors. Because the pipelined protocol is bit-deterministic in
//! (member set, gradients, seed), the survivor-set continuation is
//! **bit-identical to a from-scratch run over the same member set**
//! — the epoch boundary *is* the checkpoint, and it costs nothing to
//! write.
//!
//! A restarted worker dials the same rendezvous address and opens
//! with [`Msg::Join`]; the coordinator admits it only at an epoch
//! boundary, answers [`Msg::Welcome`] naming the epoch it joins, and
//! tells the incumbents with [`Msg::EpochBump`]. Each segment's mesh
//! is stamped with its epoch (the Hello frame's sequence field), so a
//! zombie segment's late dial can never splice into the rebuilt mesh.

use super::*;
use crate::protocol::drain_boundary;
use hipress_chaos::MembershipPlan;
use hipress_trace::TrackId;

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
    /// The member survived a peer's death: `completed` segment
    /// iterations fully retired, blaming segment slot `dead_slot`.
    Halt { completed: u32, dead_slot: u32 },
    /// The member's control stream closed without a report — it died.
    Lost,
    /// A non-elastic failure; the run must abort.
    Fail(Error),
}

/// Reads one member's control stream until it yields a segment result,
/// republishing interleaved live-progress frames into the hub.
fn collect_member(
    stream: &mut TcpStream,
    run_deadline: Duration,
    progress: Option<&hipress_obs::Telemetry>,
) -> SegRes {
    if let Err(e) = stream.set_read_timeout(Some(run_deadline)) {
        return SegRes::Fail(ctl_io(e));
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
                flight: _,
            }) => {
                return SegRes::Done {
                    cells: cells
                        .into_iter()
                        .map(|(f, p, v)| {
                            (
                                (f, p),
                                Cell {
                                    acc: v.into(),
                                    updated: true,
                                    ..Cell::default()
                                },
                            )
                        })
                        .collect(),
                    report,
                    trace,
                    metrics,
                }
            }
            Ok(Ctl::Halted { completed, dead }) => {
                return SegRes::Halt {
                    completed,
                    dead_slot: dead,
                }
            }
            Ok(Ctl::Failed { error, flight: _ }) => return SegRes::Fail(error),
            Ok(_) => return SegRes::Fail(ctl_io("worker sent an unexpected message")),
            // EOF or timeout without a report: the worker died.
            Err(_) => return SegRes::Lost,
        }
    }
}

/// The coordinator's state for one elastic run: the control streams
/// and latest clock syncs of every live member, keyed by global rank.
struct Roster {
    streams: HashMap<u32, TcpStream>,
    syncs: HashMap<u32, ClockSync>,
    /// Ranks whose segment-opening `Hello` was already consumed (the
    /// initial rendezvous reads it to learn who dialed in); their
    /// mesh ports for the upcoming segment sit in `ports`.
    greeted: Vec<u32>,
    ports: HashMap<u32, u16>,
}

/// Accepts the initial full-membership rendezvous: every rank dials
/// in, says Hello, and answers a clock-probe burst.
fn accept_initial(
    listener: &TcpListener,
    nodes: usize,
    deadline: Duration,
    clock_epoch: Instant,
) -> Result<Roster> {
    listener.set_nonblocking(true).map_err(ctl_io)?;
    let hard_deadline = Instant::now() + deadline;
    let mut roster = Roster {
        streams: HashMap::new(),
        syncs: HashMap::new(),
        greeted: Vec::new(),
        ports: HashMap::new(),
    };
    while roster.streams.len() < nodes {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).map_err(ctl_io)?;
                stream.set_nodelay(true).map_err(ctl_io)?;
                stream.set_read_timeout(Some(deadline)).map_err(ctl_io)?;
                let Ctl::Hello { rank, mesh_port } = read_ctl(&mut stream)? else {
                    return Err(ctl_io("worker spoke before saying Hello"));
                };
                if rank as usize >= nodes || roster.streams.contains_key(&rank) {
                    return Err(ctl_io(format!("bad or duplicate Hello from rank {rank}")));
                }
                let sync = probe_clock(&mut stream, clock_epoch)?;
                roster.syncs.insert(rank, sync);
                roster.ports.insert(rank, mesh_port);
                roster.greeted.push(rank);
                roster.streams.insert(rank, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= hard_deadline {
                    return Err(ctl_io(format!(
                        "rendezvous timed out with {} of {nodes} workers",
                        roster.streams.len()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(ctl_io(e)),
        }
    }
    Ok(roster)
}

/// Accepts one respawned joiner at an epoch boundary: its connection
/// opens with [`Msg::Join`]; answer with [`Msg::Welcome`] naming the
/// epoch, handoff iteration, and member set it joins.
fn admit_joiner(
    listener: &TcpListener,
    expect_rank: u32,
    current_epoch: u64,
    welcome: &Msg,
    roster: &mut Roster,
) -> Result<()> {
    let hard_deadline = Instant::now() + JOIN_DEADLINE;
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).map_err(ctl_io)?;
                stream.set_nodelay(true).map_err(ctl_io)?;
                stream
                    .set_read_timeout(Some(JOIN_DEADLINE))
                    .map_err(ctl_io)?;
                let Ctl::Member(Msg::Join { rank, epoch }) = read_ctl(&mut stream)? else {
                    return Err(ctl_io("joiner spoke before asking to Join"));
                };
                if rank != expect_rank {
                    return Err(ctl_io(format!(
                        "Join from rank {rank}, expected {expect_rank}"
                    )));
                }
                // The stale-epoch rule, rendezvous-plane edition: a
                // joiner claiming to have seen an epoch the run has
                // not reached is lying about the bump order.
                if epoch > current_epoch {
                    return Err(ctl_io(format!(
                        "Join from rank {rank} claims future epoch {epoch} (current {current_epoch})"
                    )));
                }
                write_ctl(&mut stream, &Ctl::Member(welcome.clone()))?;
                roster.streams.insert(rank, stream);
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= hard_deadline {
                    return Err(ctl_io(format!(
                        "rejoining rank {expect_rank} never dialed in"
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(ctl_io(e)),
        }
    }
}

/// Emits the membership-epoch bookkeeping every boundary shares: the
/// report record, the trace instants (the same `membership` category
/// [`RuntimeReport::from_trace`] rebuilds the records from), and the
/// telemetry hub's latched `MembershipChange` alert.
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

/// The elastic coordinator: runs `pcfg.iterations` total iterations
/// over a membership that shrinks when scripted crashes fire and
/// grows back when scripted rejoins come due, one epoch segment at a
/// time. `respawn` is invoked with a global rank when its rejoin
/// comes due; it must start a fresh worker that dials `listener` and
/// opens with [`Msg::Join`].
#[allow(clippy::too_many_arguments)]
fn coordinate_elastic(
    listener: &TcpListener,
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    plan: &MembershipPlan,
    respawn: &dyn Fn(u32) -> Result<()>,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    let total = pcfg.iterations;
    let grad_lens: Vec<u32> = worker_grads[0].iter().map(|t| t.len() as u32).collect();
    plan.validate(nodes, total).map_err(Error::config)?;

    let clock_epoch = instruments
        .tracer
        .map(Tracer::epoch)
        .unwrap_or_else(Instant::now);
    let run_start_ns = instruments.tracer.map(Tracer::now_ns);
    let started = Instant::now();
    let mem_track = instruments.tracer.map(|t| t.thread_track("membership"));

    let mut members: Vec<u32> = (0..nodes as u32).collect();
    let mut epoch: u64 = 0;
    let mut from: u32 = 0;
    let mut pending_crashes: Vec<(u32, u32)> = plan.crashes.clone();
    // Rejoins in due order, each clamped so it still has a boundary
    // before the run ends.
    let mut pending_rejoins: Vec<(u32, u32)> = plan
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

    let mut roster = accept_initial(listener, nodes, pconf.connect_deadline(), clock_epoch)?;
    record_epoch(
        &mut report,
        instruments.tracer,
        mem_track,
        instruments.progress,
        0,
        0,
        &members,
        &[],
        0,
    );

    // Aborts the run: best-effort Shutdown to every live member so no
    // worker is left blocking on its post-segment control read.
    let shutdown_all = |roster: &mut Roster| {
        for stream in roster.streams.values_mut() {
            let _ = write_ctl(stream, &Ctl::Shutdown);
        }
    };

    loop {
        // ---- Plan this segment ------------------------------------
        // Run to the end unless a rejoin comes due first: admission
        // happens only at epoch boundaries, so the segment is cut
        // short to create one.
        let seg_end = pending_rejoins
            .first()
            .map_or(total, |&(_, due)| due.max(from + 1).min(total));
        let seg_iters = seg_end - from;

        // ---- Rendezvous over the current member set ---------------
        // Every member re-announces with a fresh mesh port and takes
        // a fresh clock-probe burst (the initial rendezvous already
        // consumed both for ranks in `greeted`).
        for &g in &members {
            if let Some(i) = roster.greeted.iter().position(|&r| r == g) {
                roster.greeted.swap_remove(i);
                continue;
            }
            let stream = roster
                .streams
                .get_mut(&g)
                .expect("live member has a control stream");
            stream
                .set_read_timeout(Some(pconf.connect_deadline()))
                .map_err(ctl_io)?;
            let hello = read_ctl(stream);
            let Ok(Ctl::Hello { rank, mesh_port }) = hello else {
                shutdown_all(&mut roster);
                return Err(ctl_io(format!(
                    "rank {g} did not re-announce at epoch {epoch}"
                )));
            };
            if rank != g {
                shutdown_all(&mut roster);
                return Err(ctl_io(format!("rank {g} re-announced as {rank}")));
            }
            let sync = probe_clock(stream, clock_epoch)?;
            roster.syncs.insert(g, sync);
            roster.ports.insert(g, mesh_port);
        }

        // ---- Dispatch ---------------------------------------------
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
                config: *config,
                iterations: seg_iters,
                window: pcfg.window,
                kill: false,
                want_trace: instruments.tracer.is_some(),
                want_metrics: instruments.metrics.is_some(),
                want_progress: instruments.progress.is_some(),
                grad_lens: grad_lens.clone(),
                grads: worker_grads[g as usize]
                    .iter()
                    .map(|t| t.as_slice().to_vec())
                    .collect(),
                mesh_ports: mesh_ports.clone(),
                elastic: true,
                epoch,
                base_iter: from,
                die_at_iter,
            };
            let stream = roster.streams.get_mut(&g).expect("member stream");
            write_ctl(stream, &Ctl::Job(Box::new(job)))?;
        }
        if let Some(t) = instruments.progress {
            for &g in &members {
                t.beat(g);
            }
        }

        // ---- Collect ----------------------------------------------
        let run_deadline = pconf.run_deadline();
        let progress = instruments.progress;
        let mut results: HashMap<u32, SegRes> = if progress.is_some() {
            // One collector per member, so live-progress frames keep
            // draining while slower members still run.
            std::thread::scope(|s| {
                let handles: Vec<(u32, _)> = roster
                    .streams
                    .iter_mut()
                    .filter(|(g, _)| members.contains(*g))
                    .map(|(&g, stream)| {
                        (
                            g,
                            s.spawn(move || collect_member(stream, run_deadline, progress)),
                        )
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(g, h)| {
                        (
                            g,
                            h.join().unwrap_or_else(|_| {
                                SegRes::Fail(Error::sim(format!("rank {g} collector panicked")))
                            }),
                        )
                    })
                    .collect()
            })
        } else {
            members
                .iter()
                .map(|&g| {
                    let stream = roster.streams.get_mut(&g).expect("member stream");
                    (g, collect_member(stream, run_deadline, None))
                })
                .collect()
        };

        // A real (non-elastic) failure anywhere aborts the whole run.
        if results.values().any(|r| matches!(r, SegRes::Fail(_))) {
            shutdown_all(&mut roster);
            let worst = root_cause(results.into_values().filter_map(|r| match r {
                SegRes::Fail(e) => Some(e),
                _ => None,
            }))
            .expect("at least one failure");
            return Err(worst);
        }

        let deads: Vec<u32> = members
            .iter()
            .copied()
            .filter(|g| matches!(results.get(g), Some(SegRes::Lost)))
            .collect();

        if deads.is_empty() {
            // ---- Clean segment ------------------------------------
            let mut cells_per_slot: Vec<HashMap<(u32, u32), Cell>> =
                Vec::with_capacity(members.len());
            for &g in &members {
                let (cells, node_report, trace, metrics) = match results.remove(&g) {
                    Some(SegRes::Done {
                        cells,
                        report,
                        trace,
                        metrics,
                    }) => (cells, report, trace, metrics),
                    // A Halt without any dead control stream means a
                    // member blamed a peer that is demonstrably alive
                    // — a protocol violation, not a survivable death.
                    Some(SegRes::Halt { dead_slot, .. }) => {
                        shutdown_all(&mut roster);
                        return Err(ctl_io(format!(
                            "rank {g} halted blaming slot {dead_slot} although every member is alive"
                        )));
                    }
                    _ => {
                        shutdown_all(&mut roster);
                        return Err(ctl_io(format!("rank {g} never reported its segment")));
                    }
                };
                report.absorb(&node_report);
                report.per_node_busy_ns[g as usize] += node_report.total_busy_ns();
                if let Some(tracer) = instruments.tracer {
                    if let Some(t) = &trace {
                        replay_into(tracer, t, &roster.syncs[&g]);
                        record_clock_meta(tracer, g as usize, &roster.syncs[&g]);
                    }
                }
                if let Some(scope) = instruments.metrics {
                    if let Some(json) = &metrics {
                        let snap = MetricsSnapshot::from_json(json)
                            .map_err(|e| ctl_io(format!("rank {g} metrics snapshot: {e}")))?;
                        scope.absorb_snapshot(&snap);
                    }
                }
                cells_per_slot.push(cells);
            }
            if seg_end == total {
                // ---- Final segment: assemble and shut down --------
                shutdown_all(&mut roster);
                let sub: Vec<Vec<Tensor>> = members
                    .iter()
                    .map(|&g| worker_grads[g as usize].clone())
                    .collect();
                let flows = hipress_core::interp::gradient_flows(&sub);
                let replicated = replicate(&flows);
                let graph =
                    build_graph(strategy, algorithm, partitions, &grad_lens, members.len())?;
                let layout = FlowLayout::derive(&graph, members.len(), &replicated)?;
                let flows_out = layout.assemble(&cells_per_slot)?;
                report.wall_ns = started.elapsed().as_nanos() as u64;
                record_run_span(
                    instruments.tracer,
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
                    flows: flows_out,
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
            // in (members, gradients, seed).
            let seg_start = from;
            let completions: Vec<u32> = members
                .iter()
                .filter(|g| !deads.contains(*g))
                .map(|&g| match results.get(&g) {
                    Some(SegRes::Halt { completed, .. }) => *completed,
                    Some(SegRes::Done { .. }) => seg_iters,
                    _ => 0,
                })
                .collect();
            from = seg_start + drain_boundary(&completions);
            for &d in &deads {
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
            members.retain(|g| !deads.contains(g));
            if members.len() < 2 {
                shutdown_all(&mut roster);
                return Err(Error::config(format!(
                    "elastic run cannot continue: {} survivor(s) after evicting {deads:?}",
                    members.len()
                )));
            }
            epoch += 1;
            // Admit any rejoins already due at this boundary, then
            // bump the incumbents. (A rejoin due later gets its own
            // boundary via the segment-planning cut above.)
            let mut joined: Vec<u32> = Vec::new();
            while let Some(&(r, due)) = pending_rejoins.first() {
                if due > from || deads.contains(&r) {
                    break;
                }
                pending_rejoins.remove(0);
                members.push(r);
                members.sort_unstable();
                joined.push(r);
            }
            let welcome = Msg::Welcome {
                epoch,
                from_iter: from,
                members: members.clone(),
            };
            for &r in &joined {
                respawn(r)?;
                admit_joiner(listener, r, epoch, &welcome, &mut roster)?;
            }
            let changed = deads.first().copied().unwrap_or(0);
            record_epoch(
                &mut report,
                instruments.tracer,
                mem_track,
                instruments.progress,
                epoch,
                from,
                &members,
                &deads,
                changed,
            );
            let bump = Ctl::Member(Msg::EpochBump {
                epoch,
                evicted: deads.first().copied(),
                from_iter: from,
                members: members.clone(),
            });
            for &g in &members {
                if joined.contains(&g) {
                    continue; // The Welcome already carries the epoch.
                }
                let stream = roster.streams.get_mut(&g).expect("member stream");
                write_ctl(stream, &bump)?;
            }
            continue;
        }

        // ---- Clean admission boundary -----------------------------
        epoch += 1;
        let mut joined: Vec<u32> = Vec::new();
        while let Some(&(r, due)) = pending_rejoins.first() {
            if due > from {
                break;
            }
            pending_rejoins.remove(0);
            members.push(r);
            members.sort_unstable();
            joined.push(r);
        }
        let welcome = Msg::Welcome {
            epoch,
            from_iter: from,
            members: members.clone(),
        };
        for &r in &joined {
            respawn(r)?;
            admit_joiner(listener, r, epoch, &welcome, &mut roster)?;
        }
        let changed = joined.first().copied().unwrap_or(0);
        record_epoch(
            &mut report,
            instruments.tracer,
            mem_track,
            instruments.progress,
            epoch,
            from,
            &members,
            &[],
            changed,
        );
        let bump = Ctl::Member(Msg::EpochBump {
            epoch,
            evicted: None,
            from_iter: from,
            members: members.clone(),
        });
        for &g in &members {
            if joined.contains(&g) {
                continue;
            }
            let stream = roster.streams.get_mut(&g).expect("member stream");
            write_ctl(stream, &bump)?;
        }
    }
}

/// Executes an elastic job as real OS processes: like
/// [`run_processes`][super::run_processes], plus a scripted
/// [`MembershipPlan`] of crashes and rejoins. Crashed ranks exit hard
/// (code 13) and are evicted at the drain boundary; rejoining ranks
/// are respawned with `node --join` and admitted at the next epoch
/// boundary.
///
/// The returned flows are the **final epoch's** member set's result —
/// over the survivors when ranks were lost for good, over the full
/// membership when every crash was paired with a rejoin. The report
/// carries the full epoch history (`membership`) and every evicted
/// rank.
///
/// # Errors
///
/// Configuration errors for bad shapes or plans; control-channel or
/// protocol failures; a configuration error when fewer than two
/// members would survive an eviction.
#[allow(clippy::too_many_arguments)]
pub fn run_elastic_processes(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    plan: &MembershipPlan,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    validate_grads(worker_grads)?;
    validate(pcfg)?;
    if std::env::var_os(SPAWN_GUARD_ENV).is_some() {
        return Err(Error::config(
            "recursive worker spawn: the worker binary re-entered run_elastic_processes — \
             point ProcessConfig.binary (or HIPRESS_NODE_BIN) at a binary that dispatches \
             `node` to node_main",
        ));
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
    let addr = listener.local_addr().map_err(ctl_io)?;
    let binary = resolve_binary(pconf)?;

    let children: Mutex<Vec<std::process::Child>> = Mutex::new(Vec::with_capacity(nodes));
    let spawn_one = |rank: u32, join: bool| -> Result<()> {
        let mut cmd = std::process::Command::new(&binary);
        cmd.env(SPAWN_GUARD_ENV, "1")
            .arg("node")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--rank")
            .arg(rank.to_string());
        if join {
            cmd.arg("--join");
        } else {
            cmd.arg("--nodes").arg(nodes.to_string());
        }
        let child = cmd
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| {
                Error::config(format!(
                    "failed to spawn worker {rank} ({}): {e}",
                    binary.display()
                ))
            })?;
        children.lock().expect("children lock").push(child);
        Ok(())
    };
    for rank in 0..nodes {
        spawn_one(rank as u32, false)?;
    }
    let respawn = |rank: u32| spawn_one(rank, true);

    let result = coordinate_elastic(
        &listener,
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        config,
        pcfg,
        pconf,
        plan,
        &respawn,
        instruments,
    );
    reap(&mut children.lock().expect("children lock"));
    result
}

/// The joiner's rendezvous: dial the coordinator, ask to [`Msg::Join`]
/// as `rank`, and block until the [`Msg::Welcome`] that admits us at
/// the next epoch boundary. Returns the control stream (ready for the
/// normal per-segment protocol) and the member set joined.
fn attach(connect: &str, rank: usize) -> Result<(TcpStream, Vec<u32>)> {
    let mut ctl = TcpStream::connect(connect)
        .map_err(|e| ctl_io(format!("node {rank}: dial coordinator {connect}: {e}")))?;
    ctl.set_nodelay(true).map_err(ctl_io)?;
    write_ctl(
        &mut ctl,
        &Ctl::Member(Msg::Join {
            rank: rank as u32,
            epoch: 0,
        }),
    )?;
    // Admission happens only at an epoch boundary, which can be most
    // of a segment away; wait generously.
    ctl.set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(ctl_io)?;
    let members = match read_ctl(&mut ctl)? {
        Ctl::Member(Msg::Welcome { members, .. }) => members,
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
/// asks to join as `rank`, and on [`Msg::Welcome`] enters the normal
/// per-segment worker protocol.
///
/// # Errors
///
/// Transport or protocol failures talking to the coordinator or the
/// mesh. Exits the process with code 13 when a scripted crash fires.
pub fn join_main(connect: &str, rank: usize) -> Result<()> {
    let (ctl, members) = attach(connect, rank)?;
    match run_node(ctl, rank, members.len())? {
        NodeRun::Completed => Ok(()),
        NodeRun::Killed => {
            eprintln!("node {rank}: scripted crash after rejoin");
            std::process::exit(13);
        }
    }
}

/// Runs the full elastic coordinator protocol with worker *threads*
/// standing in for worker processes — same control channel, same TCP
/// mesh, same rendezvous, crash, and rejoin paths; only `fork/exec`
/// is skipped. The crash victim's thread returns instead of exiting,
/// dropping its sockets exactly as a dead process would.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn run_elastic_threaded(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    plan: &MembershipPlan,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    validate_grads(worker_grads)?;
    validate(pcfg)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
    let addr = listener.local_addr().map_err(ctl_io)?;

    let handles: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
    let spawn_worker = |rank: usize, join: bool| -> Result<()> {
        let connect = addr.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("elastic-node{rank}"))
            .spawn(move || {
                let run = || -> Result<NodeRun> {
                    if join {
                        let (ctl, members) = attach(&connect, rank)?;
                        run_node(ctl, rank, members.len())
                    } else {
                        let ctl = TcpStream::connect(&connect).map_err(ctl_io)?;
                        run_node(ctl, rank, nodes)
                    }
                };
                // A Killed return *is* the crash: the thread drops its
                // sockets and vanishes without a word, exactly like a
                // killed process. Errors are also silent — the
                // coordinator diagnoses them from the stream.
                let _ = run();
            })
            .map_err(|e| Error::config(format!("spawn worker thread {rank}: {e}")))?;
        handles.lock().expect("handles lock").push(handle);
        Ok(())
    };
    for rank in 0..nodes {
        spawn_worker(rank, false)?;
    }
    let respawn = |rank: u32| spawn_worker(rank as usize, true);

    let pconf = ProcessConfig::default();
    let result = coordinate_elastic(
        &listener,
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        config,
        pcfg,
        &pconf,
        plan,
        &respawn,
        instruments,
    );
    for handle in handles.lock().expect("handles lock").drain(..) {
        let _ = handle.join();
    }
    result
}

/// Asserts the slot-reassignment rule the dispatch loop relies on:
/// the slot a member gets in the Job equals the pure
/// [`member_slot`] decision over the sorted member list.
#[cfg(test)]
mod tests {
    use crate::protocol::member_slot;

    #[test]
    fn dispatch_slots_match_the_pure_reassignment_rule() {
        let members = [0u32, 2, 3, 5];
        for (slot, &g) in members.iter().enumerate() {
            assert_eq!(member_slot(&members, g), Some(slot as u32));
        }
        assert_eq!(member_slot(&members, 1), None);
    }
}
