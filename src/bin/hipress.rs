//! The `hipress` command-line interface: run throughput simulations,
//! inspect planner decisions, compile CompLL DSL programs, and browse
//! the model zoo without writing Rust.
//!
//! ```text
//! hipress models
//! hipress sim --model VGG19 --nodes 16 --strategy casync-ps --algorithm onebit
//! hipress run --nodes 4 --algorithm onebit --trace rt.json
//! hipress chaos --plan recoverable --seeds 4
//! hipress chaos --single --plan crash --victim 1
//! hipress bench --baseline BENCH_runtime.json --tolerance 25
//! hipress report BENCH_runtime.json
//! hipress compare --model Bert-large --nodes 16
//! hipress plan --model VGG19 --nodes 16 --strategy casync-ps --algorithm onebit
//! hipress compile path/to/algorithm.dsl
//! hipress trace-diff sim.json rt.json
//! ```

use hipress::compll::{param_values, CompiledAlgorithm};
use hipress::metrics::{names, view as metrics_view, MetricValue, Polarity};
use hipress::prelude::*;
use hipress::trace::view;
use hipress::trace::Trace;
use hipress::util::table::{Align, Table};
use hipress::util::units::{fmt_bytes, fmt_duration_ns};
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = parse_flags(cmd, &args[1..]).and_then(|(flags, positional)| {
        let pos = |i: usize| positional.get(i).map(String::as_str);
        match cmd.as_str() {
            "models" => cmd_models(),
            "sim" => cmd_sim(&flags),
            "run" => cmd_run(&flags),
            "node" => cmd_node(&flags),
            "chaos" => cmd_chaos(&flags),
            "bench" => cmd_bench(&flags),
            "serve" => cmd_serve(&flags, pos(0)),
            "scrape" => cmd_scrape(&flags, pos(0), pos(1)),
            "report" => cmd_report(&flags, pos(0)),
            "postmortem" => cmd_postmortem(pos(0)),
            "compare" => cmd_compare(&flags),
            "plan" => cmd_plan(&flags),
            "compile" => cmd_compile(pos(0)),
            "trace-diff" => cmd_trace_diff(pos(0), pos(1)),
            "lint" => cmd_lint(&flags, pos(0)),
            "verify" => cmd_verify(&flags),
            "help" | "--help" | "-h" => {
                usage();
                Ok(())
            }
            other => Err(format!("unknown command '{other}'")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "hipress — compression-aware data parallel DNN training (SOSP'21 reproduction)

USAGE:
  hipress models
      List the Table 6 model zoo.
  hipress sim --model <name> [--nodes N] [--local] [--strategy S] [--algorithm A] [--baseline] [--trace out.json]
      Simulate one training configuration.
  hipress run [--nodes N] [--backend threads|processes|sim] [--iters I] [--window W] [--strategy S] [--algorithm A] [--partitions K] [--elems E1,E2,...] [--seed S] [--cross-check] [--kill-node V] [--flight-dump FILE] [--trace out.json] [--json] [--listen ADDR] [--linger-ms MS]
      Synchronize synthetic gradients for real on CaSync-RT — one OS
      thread per node, or with --backend processes one OS *process*
      per node over a loopback TCP mesh — and print the measured
      runtime report. --iters/--window run multiple pipelined
      iterations; --cross-check requires the process backend
      bit-identical to threads (and the interpreter when unpipelined);
      --kill-node V kills worker V mid-protocol to prove the failure
      is diagnosed, not hung. On the process backend, --trace merges
      every worker's timeline into one clock-aligned trace (validated
      for cross-rank causality), --json folds every worker's metrics
      into one snapshot, and --flight-dump names a file that receives
      each rank's last protocol events if the run fails. --listen
      binds the embedded telemetry server for the duration of the run
      (plus --linger-ms): GET /metrics, /healthz, /report.json, and
      the /events NDJSON stream of per-iteration progress records,
      with the SLO watchdog counting anomalies into
      alerts_total{{kind}}.
  hipress run --elastic [--kill-rank R --kill-iter I] [--rejoin-after J] [--cross-check] [--trace out.json] [run flags]
      Membership-scripted run that *survives* losing a worker:
      --kill-rank/--kill-iter crash rank R at iteration I; the
      coordinator drains to the last fully-retired boundary, evicts
      the dead rank, re-plans chunk ownership over the survivors, and
      bumps the membership epoch — the run finishes every iteration.
      --rejoin-after J restarts the victim (`node --join`) and
      re-admits it at the next epoch boundary. --cross-check proves
      the continuation bit-identical to a fixed-membership run over
      the final member set. Backends: processes (default) or threads.
  hipress serve <BENCH.json> [--listen ADDR]
      Serve a previously written metrics snapshot file over the
      embedded telemetry server (/metrics as Prometheus text
      exposition, /healthz reporting done) until interrupted.
  hipress scrape <addr> <path> [--lines N]
      Fetch /metrics, /healthz, /report.json, or /events from a live
      telemetry server with the built-in std-TCP client and print the
      body; --lines stops the /events stream after N records.
  hipress postmortem <dump>
      Render a flight-recorder dump written by a failed process run:
      every rank's final protocol events interleaved on one
      clock-aligned timeline, ending at the diagnosed root cause.
  hipress node --connect <addr> --rank R (--nodes N | --join)
      (internal) One worker of a `--backend processes` run; spawned by
      the coordinator, never useful interactively. With --join,
      re-attach to a running elastic job and wait for admission at the
      next epoch boundary.
  hipress chaos [--nodes N] [--plan P] [--seeds K] [--policy wait|partial|abort] [--victim V] [--deadline-ms D] [--single] [--trace out.json]
      Synchronize on CaSync-RT over a fault-injecting fabric. By
      default, runs a survival matrix (plans x fault seeds) and checks
      every recoverable plan reproduces the fault-free bits exactly;
      exits non-zero on any violated expectation. With --single, runs
      one plan once: recoverable plans must come back bit-identical,
      unrecoverable ones (crash, blackhole) exit non-zero with a
      structured error naming the failed node.
  hipress bench [--nodes N] [--dir D] [--snapshot cur.json] [--baseline base.json] [--tolerance PCT] [--require-overlap] [--listen ADDR] [--linger-ms MS]
      Run the model x algorithm x strategy bench matrix on both the
      thread engine and the simulator; write schema-versioned
      BENCH_runtime.json and BENCH_sim.json snapshots to --dir
      (default .). With --baseline, diff the matching current snapshot
      (a kind=sim baseline gates the deterministic simulator numbers,
      any other the measured wall clocks) and exit non-zero on any
      metric regressed beyond --tolerance percent (default 25); with
      --snapshot, gate that file instead of re-running the matrix.
      With --require-overlap, instead gate that pipelined iterations
      (window 16) beat serial ones (window 1) on median wall time,
      running real OS processes over the loopback TCP mesh.
  hipress report <BENCH.json> [--json | --prom]
      Render a metrics snapshot as a sparkline/table dashboard, or
      re-emit it as canonical JSON / Prometheus text exposition.
  hipress compare --model <name> [--nodes N] [--local]
      Simulate HiPress against all baselines.
  hipress plan --model <name> [--nodes N] [--strategy S] [--algorithm A]
      Show the selective compression & partitioning plan per gradient.
  hipress compile <file.dsl>
      Compile a CompLL DSL program; print its LoC report and CUDA output.
  hipress lint [file.dsl] [--strategy S] [--algorithm A] [--nodes N]
      Statically verify CaSync task graphs across the strategy x
      algorithm x cluster matrix — each CaSync graph additionally as a
      pipelined composition at windows 1, 2, and 4 — and dataflow-check
      the shipped CompLL programs; with a file, dataflow-check that
      program instead.
  hipress verify [--mutant M]
      Exhaust the small-scope model-checking matrix over the CaSync-RT
      wire/FT protocol (the runtime's real state machines) plus the
      elastic epoch-transition matrix (drain / evict / re-plan /
      rejoin interleavings) and print per-scenario exploration
      statistics. With --mutant, seed a protocol defect; the checker
      must refute it with a counterexample trace, and the command
      exits non-zero.
  hipress trace-diff <a.json> <b.json>
      Compare two exported traces (e.g. a simulated vs a measured run
      of one plan): per-category latency table plus side-by-side
      utilization bars.

FLAGS:
  --model      VGG19 | ResNet50 | UGATIT | UGATIT-light | Bert-base | Bert-large | LSTM | Transformer
  --nodes      cluster size (default 16; `run` defaults to 4, `bench` to 3)
  --json       (`sim`/`run`) dump the report as a metrics snapshot JSON
               instead of the human-readable summary
  --dir        (`bench`) directory for BENCH_*.json snapshots (default .)
  --snapshot   (`bench`) gate an existing snapshot file instead of re-running
  --baseline   (`bench`) baseline BENCH_*.json for the perf-regression gate
  --tolerance  (`bench`) regression tolerance in percent (default 25)
  --local      use the 1080Ti/56Gbps local-cluster preset (default: EC2 V100/100Gbps)
  --strategy   casync-ps | casync-ring | byteps | ring (default casync-ps)
  --algorithm  none | onebit | tbq | terngrad[:bits] | dgc[:rate] | graddrop[:rate] (default onebit)
  --baseline   run the strategy with its baseline runtime (no CaSync optimizations)
  --trace      export a Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)
               and print utilization bars + per-category latencies
  --partitions gradient partition count for `run` (default 2)
  --elems      comma-separated gradient element counts for `run` (default 65536,4096,512)
  --seed       stochastic-codec seed for `run` (default 1)
  --backend    (`run`) threads | processes | sim (default threads)
  --iters      (`run`) iterations to run back to back (default 1)
  --window     (`run`) max iterations in flight at once (default 1)
  --cross-check (`run`) require processes bit-identical to threads
  --kill-node  (`run`) kill this worker mid-protocol (processes only)
  --flight-dump (`run`) write every rank's flight-recorder ring here on
               failure (processes only); render with `hipress postmortem`
  --listen     (`run`/`bench`/`serve`) bind the embedded telemetry server
               here (e.g. 127.0.0.1:0 for an ephemeral port); the bound
               address is printed as `telemetry: listening on ...`
  --linger-ms  (`run`/`bench`) keep the telemetry server up this long
               after the run retires so scrapers can collect the final
               state (default 0)
  --lines      (`scrape`) stop a streaming endpoint after N lines
  --plan       (`chaos`) none | recoverable | drop-storm | corrupt-storm |
               stall[:ms] | crash[:at-task] | blackhole
               (default: the three survivable storm plans)
  --seeds      (`chaos`) fault-plan seeds per plan in matrix mode (default 4)
  --policy     (`chaos`) straggler degradation: wait | partial | abort (default wait)
  --victim     (`chaos`) node the stall/crash/blackhole plans target (default 1)
  --deadline-ms (`chaos`) hard receive deadline per node (default 8000)
  --single     (`chaos`) run one plan once and propagate its outcome
  --elastic    (`run`) membership-scripted elastic run (see above)
  --kill-rank  (`run --elastic`) the rank to crash (with --kill-iter)
  --kill-iter  (`run --elastic`) the global iteration the crash fires at
  --rejoin-after (`run --elastic`) restart the victim and re-admit it at
               the first epoch boundary at or after this iteration
  --mutant     (`verify`) seed a protocol defect: skip-dedup | dedup-before-verify |
               apply-before-verify | retry-without-bound | drop-heartbeat |
               forget-rescale; elastic: skip-drain | accept-stale-epoch |
               reuse-dead-owner | admit-future-join"
    );
}

/// Splits a command's arguments into `--flag [value]` pairs and the
/// positional arguments left over, wherever they appear. A value flag
/// with no value after it is an error.
fn parse_flags(
    cmd: &str,
    args: &[String],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        // `--baseline` is a boolean runtime toggle for `sim` but
        // takes a snapshot path for `bench`.
        let boolean = matches!(
            name,
            "local"
                | "no-selective"
                | "json"
                | "prom"
                | "single"
                | "cross-check"
                | "require-overlap"
                | "join"
                | "elastic"
        ) || (name == "baseline" && cmd != "bench");
        let value = if boolean {
            "true".to_string()
        } else {
            match args.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("--{name} needs a value")),
            }
        };
        flags.insert(name.to_string(), value);
    }
    Ok((flags, positional))
}

/// Parses flag `--name` with its `FromStr`; `None` when it is absent.
fn flag<T: FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    flags
        .get(name)
        .map(|v| v.parse().map_err(|e| format!("bad --{name} '{v}': {e}")))
        .transpose()
}

fn parse_model(flags: &HashMap<String, String>) -> Result<DnnModel, String> {
    let name = flags
        .get("model")
        .ok_or_else(|| "--model is required".to_string())?;
    DnnModel::by_name(name).ok_or_else(|| format!("unknown model '{name}' (try `hipress models`)"))
}

fn parse_cluster(flags: &HashMap<String, String>) -> Result<ClusterConfig, String> {
    let nodes: usize = flag(flags, "nodes")?.unwrap_or(16);
    Ok(if flags.contains_key("local") {
        ClusterConfig::local(nodes)
    } else {
        ClusterConfig::ec2(nodes)
    })
}

fn cmd_models() -> Result<(), String> {
    let mut table = Table::new(&[
        ("model", Align::Left),
        ("total", Align::Right),
        ("max gradient", Align::Right),
        ("#gradients", Align::Right),
        ("V100 samples/s", Align::Right),
    ]);
    for m in DnnModel::all() {
        let spec = m.spec();
        table.row(vec![
            m.name().to_string(),
            fmt_bytes(spec.total_bytes()),
            fmt_bytes(spec.max_gradient_bytes()),
            spec.num_gradients().to_string(),
            format!(
                "{:.1}",
                spec.compute(GpuClass::V100).single_gpu_throughput()
            ),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn job_from_flags(flags: &HashMap<String, String>) -> Result<TrainingJob, String> {
    let model = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let strategy = flag(flags, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(flags, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let mut job = if flags.contains_key("baseline") || !strategy.is_casync() {
        let cluster = if strategy == Strategy::BytePs && !flags.contains_key("local") {
            cluster.with_tcp()
        } else {
            cluster
        };
        TrainingJob::baseline(model, cluster, strategy)
    } else {
        TrainingJob::hipress(model, cluster, strategy)
    };
    job = job.with_algorithm(algorithm);
    if flags.contains_key("no-selective") {
        job.selective = false;
    }
    Ok(job)
}

fn cmd_sim(flags: &HashMap<String, String>) -> Result<(), String> {
    let job = job_from_flags(flags)?;
    let tracer = flags.get("trace").map(|_| Tracer::new("sim"));
    let r = match &tracer {
        Some(tr) => simulate_with_tracer(&job, tr),
        None => simulate(&job),
    }
    .map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        let registry = Registry::new();
        r.record_metrics(&registry.scope(&[
            ("model", job.model.name()),
            ("algorithm", &job.algorithm.label()),
            ("strategy", job.strategy.label()),
        ]));
        let snap = registry
            .snapshot()
            .with_meta("kind", "sim")
            .with_meta("nodes", &job.cluster.nodes.to_string());
        println!("{}", snap.to_json());
        if let (Some(path), Some(tr)) = (flags.get("trace"), tracer) {
            export_trace(&tr.finish(), path)?;
        }
        return Ok(());
    }
    println!("model:              {}", job.model.name());
    println!(
        "cluster:            {} nodes x {} {} ({:.0} Gbps)",
        job.cluster.nodes,
        job.cluster.gpus_per_node,
        job.cluster.gpu.name,
        job.cluster.link.bandwidth.as_gbps()
    );
    println!("strategy:           {}", job.strategy.label());
    println!("algorithm:          {}", job.algorithm.label());
    println!("iteration:          {}", fmt_duration_ns(r.iteration_ns));
    println!("  compute:          {}", fmt_duration_ns(r.compute_ns));
    println!(
        "  sync finish:      {} (from backward start)",
        fmt_duration_ns(r.sync_finish_ns)
    );
    println!("throughput:         {:.0} samples/s", r.throughput);
    println!("scaling efficiency: {:.3}", r.scaling_efficiency);
    println!(
        "communication:      {:.1}% of iteration",
        r.comm_ratio * 100.0
    );
    println!(
        "coordinator:        {} link batches, {} batched kernel launches",
        r.stats.link_flushes, r.stats.comp_batch_launches
    );
    if let (Some(path), Some(tr)) = (flags.get("trace"), tracer) {
        export_trace(&tr.finish(), path)?;
    }
    Ok(())
}

/// Synchronizes synthetic gradients on the thread engine and prints
/// the measured report (plus, with `--trace`, the exported timeline).
fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    use hipress::tensor::synth::{generate, GradientShape};
    use hipress::tensor::Tensor;
    let nodes: usize = flag(flags, "nodes")?.unwrap_or(4);
    let strategy = flag(flags, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(flags, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let partitions: usize = flag(flags, "partitions")?.unwrap_or(2);
    let seed: u64 = flag(flags, "seed")?.unwrap_or(1);
    let elems: Vec<usize> = match flags.get("elems") {
        Some(spec) => spec
            .split(',')
            .map(|e| e.trim().parse().map_err(|_| format!("bad --elems '{e}'")))
            .collect::<Result<_, _>>()?,
        None => vec![65536, 4096, 512],
    };
    let grads: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            elems
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        (w * 1000 + g) as u64,
                    )
                })
                .collect()
        })
        .collect();
    let iters: u32 = flag(flags, "iters")?.unwrap_or(1);
    let window: u32 = flag(flags, "window")?.unwrap_or(1);
    if flags.contains_key("elastic") {
        return cmd_run_elastic(
            flags, strategy, algorithm, partitions, seed, &grads, iters, window,
        );
    }
    let backend = match flags.get("backend").map(String::as_str) {
        None | Some("threads") => Backend::Threads(nodes),
        Some("processes") => Backend::Processes(nodes),
        Some("sim") | Some("simulator") => Backend::Simulator,
        Some(other) => return Err(format!("unknown backend '{other}'")),
    };
    let kill_node: Option<u32> = flag(flags, "kill-node")?;
    let flight_dump = flags.get("flight-dump").map(std::path::PathBuf::from);
    let mut base = HiPress::new(strategy)
        .algorithm(algorithm)
        .partitions(partitions)
        .seed(seed)
        .iterations(iters)
        .pipeline_window(window);
    if kill_node.is_some() || flight_dump.is_some() {
        // `--kill-node k`: rank k crashes right after mesh setup, and
        // the fail-on-loss policy turns that into a failure naming it.
        base = base.process_config(ProcessConfig {
            membership: kill_node
                .map(|k| hipress::chaos::MembershipPlan::crash(k, 0))
                .unwrap_or_default(),
            flight_dump,
            ..ProcessConfig::default()
        });
    }

    // `--cross-check`: run the same job on real OS processes over the
    // loopback TCP mesh and on in-process threads, and require
    // bit-identical flows (plus the interpreter when unpipelined).
    if flags.contains_key("cross-check") {
        let procs = base
            .clone()
            .backend(Backend::Processes(nodes))
            .sync(&grads)
            .map_err(|e| format!("processes backend: {e}"))?;
        let threads = base
            .clone()
            .backend(Backend::Threads(nodes))
            .sync(&grads)
            .map_err(|e| format!("threads backend: {e}"))?;
        for (a, b) in threads.flows.iter().zip(&procs.flows) {
            if a.flow != b.flow || a.per_node != b.per_node {
                return Err(format!(
                    "flow {} diverged between threads and processes",
                    a.flow
                ));
            }
        }
        let mut against = "threads".to_string();
        if iters == 1 && window == 1 {
            let sim = base
                .clone()
                .backend(Backend::Simulator)
                .sync(&grads)
                .map_err(|e| format!("simulator backend: {e}"))?;
            for (a, b) in sim.flows.iter().zip(&procs.flows) {
                if a.flow != b.flow || a.per_node != b.per_node {
                    return Err(format!(
                        "flow {} diverged between interpreter and processes",
                        a.flow
                    ));
                }
            }
            against = "threads and the interpreter".into();
        }
        let report = procs.report.expect("process backend always reports");
        println!(
            "cross-check OK: {} process(es) over loopback TCP bit-identical to {against} \
             ({} / {}, {} gradients, {iters} iteration(s), window {window})",
            nodes,
            strategy.label(),
            algorithm.label(),
            elems.len(),
        );
        println!(
            "fabric: {} frames, {} framed bytes ({} payload), {} retransmits",
            report.fabric_frames,
            report.fabric_bytes_framed,
            report.fabric_bytes_payload,
            report.fabric_retransmits
        );
        return Ok(());
    }

    if backend == Backend::Simulator && (flags.contains_key("trace") || flags.contains_key("json"))
    {
        return Err("--trace/--json need a real backend: threads or processes".into());
    }
    let listen = flags.get("listen");
    if backend == Backend::Simulator && listen.is_some() {
        return Err("--listen needs a real backend: threads or processes".into());
    }
    let linger_ms: u64 = flag(flags, "linger-ms")?.unwrap_or(0);
    let tracer = flags.get("trace").map(|_| Tracer::new("casync-rt"));
    let want_json = flags.contains_key("json");
    // One registry feeds both the --json snapshot and the telemetry
    // server's /metrics endpoint (where alerts_total{kind} also lands).
    let registry = (want_json || listen.is_some()).then(Registry::new);
    let mut builder = base.backend(backend);
    if let Some(tr) = &tracer {
        builder = builder.trace(tr);
    }
    if let Some(reg) = &registry {
        builder = builder.metrics(&reg.root());
    }
    let hub = if let (Some(addr), Some(reg)) = (listen, &registry) {
        let hub = Telemetry::new(reg.clone(), WatchConfig::default());
        let server = hipress::obs::Server::bind(addr, hub.clone()).map_err(|e| e.to_string())?;
        println!("telemetry: listening on {}", server.addr());
        builder = builder.telemetry(&hub);
        Some(hub)
    } else {
        None
    };
    let out = builder.sync(&grads).map_err(|e| e.to_string())?;
    if let (Some(hub), Some(report)) = (&hub, &out.report) {
        // `/report.json` flips from {"pending":true} to the real thing.
        hub.set_report_json(report.to_json());
    }
    if want_json {
        let reg = registry.as_ref().expect("--json implies a registry");
        let snap = reg
            .snapshot()
            .with_meta("kind", "runtime")
            .with_meta("nodes", &nodes.to_string())
            .with_meta("seed", &seed.to_string());
        println!("{}", snap.to_json());
    } else {
        let engine = match backend {
            Backend::Simulator => "the interpreter",
            Backend::Threads(_) => "CaSync-RT (threads)",
            Backend::Processes(_) => "CaSync-RT (processes over loopback TCP)",
        };
        println!(
            "synchronized {} gradients x {nodes} nodes on {engine} ({} / {})",
            elems.len(),
            strategy.label(),
            algorithm.label()
        );
        println!("replicas consistent: {}", out.replicas_consistent());
        if let Some(report) = &out.report {
            println!("{report}");
        }
    }
    if let (Some(hub), Some(tr)) = (&hub, &tracer) {
        // Watchdog verdicts become trace instants: the "alert"
        // category is foreign to `RuntimeReport::from_trace`, so the
        // trace/report parity check below still holds.
        let alerts = hub.alerts();
        if !alerts.is_empty() {
            let track = tr.thread_track("watchdog");
            for a in &alerts {
                tr.instant(
                    track,
                    a.kind.as_label(),
                    "alert",
                    a.ts_ns,
                    &[
                        ("node", u64::from(a.node)),
                        ("iter", u64::from(a.iter)),
                        ("observed", a.observed),
                        ("threshold", a.threshold),
                    ],
                );
            }
        }
    }
    if let (Some(path), Some(tr)) = (flags.get("trace"), tracer) {
        let report = out.report.as_ref().expect("real backends report");
        let trace = tr.finish();
        // The trace is a second bookkeeping of the same run; deriving
        // the report from it must reproduce the measured one exactly.
        if &RuntimeReport::from_trace(&trace) != report {
            return Err("trace-derived report diverged from the measured one".into());
        }
        if matches!(backend, Backend::Processes(_)) {
            // The merged timeline stitched worker clocks together;
            // prove the alignment by checking causality: no message
            // may arrive before (its uncertainty window says) it was
            // sent.
            match hipress::runtime::validate_clock_monotonicity(&trace) {
                Ok(checked) => println!(
                    "clock alignment OK: {checked} cross-rank send\u{2192}recv pair(s) causally ordered"
                ),
                Err(violations) => {
                    for v in &violations {
                        eprintln!("clock violation: {v}");
                    }
                    return Err(format!(
                        "{} cross-rank event(s) violate the clock-aligned ordering",
                        violations.len()
                    ));
                }
            }
        }
        export_trace(&trace, path)?;
    }
    if let Some(hub) = &hub {
        // Done first, then linger: /events streams drain and
        // terminate while late scrapers still see the final
        // /metrics, /healthz, and /report.json.
        hub.mark_done();
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
    }
    Ok(())
}

/// The `hipress run --elastic` driver: a membership-scripted run that
/// survives a scripted rank loss (`--kill-rank R --kill-iter I`) by
/// draining, evicting, re-planning over the survivors, and bumping
/// the membership epoch; `--rejoin-after J` restarts the victim and
/// re-admits it at the next epoch boundary. `--cross-check` compares
/// the final flows bit for bit against a fixed-membership run over
/// the expected final member set.
#[allow(clippy::too_many_arguments)]
fn cmd_run_elastic(
    flags: &HashMap<String, String>,
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    seed: u64,
    grads: &[Vec<hipress::tensor::Tensor>],
    iters: u32,
    window: u32,
) -> Result<(), String> {
    use hipress::chaos::MembershipPlan;
    use hipress::runtime::{run_processes, run_threaded_workers, Instruments};
    let kill_rank: Option<u32> = flag(flags, "kill-rank")?;
    let kill_iter: Option<u32> = flag(flags, "kill-iter")?;
    let rejoin_after: Option<u32> = flag(flags, "rejoin-after")?;
    let plan = match (kill_rank, kill_iter) {
        (Some(r), Some(i)) => match rejoin_after {
            Some(j) => MembershipPlan::crash_then_rejoin(r, i, j),
            None => MembershipPlan::crash(r, i),
        },
        (None, None) => {
            if rejoin_after.is_some() {
                return Err("--rejoin-after needs --kill-rank and --kill-iter".into());
            }
            MembershipPlan::none()
        }
        _ => return Err("--kill-rank and --kill-iter go together".into()),
    };
    let pcfg = PipelineConfig {
        iterations: iters,
        window,
        ..Default::default()
    };
    let rconf = RuntimeConfig::default();
    let tracer = flags.get("trace").map(|_| Tracer::new("casync-rt"));
    let instruments = Instruments {
        tracer: tracer.as_ref(),
        ..Instruments::default()
    };
    let pconf = ProcessConfig {
        membership: plan,
        elastic: true,
        flight_dump: flags.get("flight-dump").map(std::path::PathBuf::from),
        ..ProcessConfig::default()
    };
    let run = match flags.get("backend").map(String::as_str) {
        None | Some("processes") => run_processes,
        Some("threads") => run_threaded_workers,
        Some(other) => {
            return Err(format!(
                "--elastic needs a real backend (threads or processes), not '{other}'"
            ))
        }
    };
    let out = run(
        strategy,
        algorithm,
        partitions,
        grads,
        seed,
        &rconf,
        &pcfg,
        &pconf,
        instruments,
    )
    .map_err(|e| e.to_string())?;

    let report = &out.report;
    let final_members = report
        .membership
        .last()
        .map(|m| m.members.clone())
        .unwrap_or_default();
    println!(
        "elastic: {} worker(s), {} epoch(s), {} eviction(s){}, final membership {} node(s)",
        grads.len(),
        report.membership.len(),
        report.evicted.len(),
        if report.evicted.is_empty() {
            String::new()
        } else {
            format!(
                " (evicted rank {})",
                report
                    .evicted
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(", rank ")
            )
        },
        final_members.len(),
    );
    println!("{report}");

    if flags.contains_key("cross-check") {
        // The fixed-membership reference: the full member set when the
        // run ends at full strength (no kill, or kill + rejoin), the
        // survivor set otherwise. Bit-identical flows or bust.
        let reference: Vec<Vec<hipress::tensor::Tensor>> = if rejoin_after.is_some() {
            grads.to_vec()
        } else if let Some(victim) = kill_rank {
            grads
                .iter()
                .enumerate()
                .filter(|(w, _)| *w as u32 != victim)
                .map(|(_, g)| g.clone())
                .collect()
        } else {
            grads.to_vec()
        };
        let fixed = run_threaded_workers(
            strategy,
            algorithm,
            partitions,
            &reference,
            seed,
            &rconf,
            &pcfg,
            &ProcessConfig::default(),
            Instruments::default(),
        )
        .map_err(|e| format!("fixed-membership reference run: {e}"))?;
        if out.flows.len() != fixed.flows.len() {
            return Err("elastic run and fixed-membership reference disagree on flow count".into());
        }
        for (a, b) in out.flows.iter().zip(&fixed.flows) {
            if a.flow != b.flow || a.per_node != b.per_node {
                return Err(format!(
                    "flow {} diverged between the elastic run and the fixed-membership reference",
                    a.flow
                ));
            }
        }
        println!(
            "cross-check OK: elastic continuation bit-identical to the fixed-membership run \
             over {} node(s)",
            reference.len()
        );
    }

    if let (Some(path), Some(tr)) = (flags.get("trace"), tracer) {
        let trace = tr.finish();
        // The membership timeline is double-booked: once in the
        // report, once as trace instants. They must agree.
        let derived = RuntimeReport::from_trace(&trace);
        if derived.membership != report.membership || derived.evicted != report.evicted {
            return Err("trace-derived membership timeline diverged from the reported one".into());
        }
        export_trace(&trace, path)?;
    }
    Ok(())
}

/// Renders a flight-recorder dump written by a failed
/// `--backend processes` run: every rank's last protocol events on
/// one clock-aligned timeline, ending at the diagnosed root cause.
fn cmd_postmortem(file: Option<&str>) -> Result<(), String> {
    use hipress::fabric::WireMsg as _;
    let path = file.ok_or(
        "postmortem: a dump file is required (a failed `hipress run --backend processes \
         --flight-dump FILE` writes one)",
    )?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let dump = hipress::runtime::PostmortemDump::from_bytes(&bytes)
        .map_err(|e| format!("parse {path}: {e:?}"))?;
    print!("{}", dump.render());
    Ok(())
}

/// The `hipress node` worker entry point: dialed back into the
/// coordinator that spawned us ([`Backend::Processes`] re-executes the
/// current binary). Never useful interactively.
fn cmd_node(flags: &HashMap<String, String>) -> Result<(), String> {
    let connect = flags
        .get("connect")
        .ok_or("node: --connect <addr> is required")?;
    let rank: usize = flags
        .get("rank")
        .ok_or("node: --rank is required")?
        .parse()
        .map_err(|_| "bad --rank".to_string())?;
    if flags.contains_key("join") {
        // A restarted worker re-attaching to a running elastic job:
        // the coordinator's Welcome carries the membership, so
        // `--nodes` is not needed (and would be stale anyway).
        return hipress::runtime::join_main(connect, rank).map_err(|e| e.to_string());
    }
    let nodes: usize = flags
        .get("nodes")
        .ok_or("node: --nodes is required (or --join to re-attach)")?
        .parse()
        .map_err(|_| "bad --nodes".to_string())?;
    hipress::runtime::node_main(connect, rank, nodes).map_err(|e| e.to_string())
}

/// One chaos run's classification for the survival table.
enum ChaosOutcome {
    /// Completed bit-identical to the fault-free run.
    Exact,
    /// Completed, but degradation rescaled some aggregates.
    Degraded,
    /// Completed yet silently diverged — always a violation.
    Diverged,
    /// Unwound with a structured failure.
    Failed(String),
}

fn cmd_chaos(flags: &HashMap<String, String>) -> Result<(), String> {
    use hipress::chaos::FaultPlan;
    use hipress::tensor::synth::{generate, GradientShape};
    use hipress::tensor::Tensor;
    use std::time::Duration;
    let nodes: usize = flag(flags, "nodes")?.unwrap_or(3);
    let strategy = flag(flags, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(flags, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let seed: u64 = flag(flags, "seed")?.unwrap_or(1);
    let victim: usize = flag(flags, "victim")?.unwrap_or(1);
    if victim >= nodes {
        return Err(format!("--victim {victim} out of range for {nodes} nodes"));
    }
    let deadline_ms: u64 = flag(flags, "deadline-ms")?.unwrap_or(8000);
    let policy = match flags.get("policy").map(String::as_str) {
        None | Some("wait") => DegradePolicy::Wait,
        Some("partial") => DegradePolicy::Partial,
        Some("abort") => DegradePolicy::Abort,
        Some(other) => Err(format!("unknown policy '{other}'"))?,
    };
    let ft = FaultTolerance {
        recv_deadline: Duration::from_millis(deadline_ms),
        retry_budget: 8,
        base_backoff: Duration::from_millis(3),
        max_backoff: Duration::from_millis(100),
        straggler_factor: 4.0,
        straggler_floor: Duration::from_millis(100),
        policy,
    };
    let elems: Vec<usize> = match flags.get("elems") {
        Some(spec) => spec
            .split(',')
            .map(|e| e.trim().parse().map_err(|_| format!("bad --elems '{e}'")))
            .collect::<Result<_, _>>()?,
        None => vec![4096, 512],
    };
    let grads: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            elems
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        (w * 1000 + g) as u64,
                    )
                })
                .collect()
        })
        .collect();
    let builder = HiPress::new(strategy)
        .algorithm(algorithm)
        .partitions(2)
        .seed(seed)
        .backend(Backend::Threads(nodes));
    let clean = builder.sync(&grads).map_err(|e| e.to_string())?;
    let build_plan = |kind: &str, plan_seed: u64| -> Result<FaultPlan, String> {
        let (name, param) = match kind.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (kind, None),
        };
        Ok(match name {
            "none" => FaultPlan::none(plan_seed),
            "recoverable" => FaultPlan::recoverable(plan_seed),
            "drop-storm" => FaultPlan::drop_storm(plan_seed),
            "corrupt-storm" => FaultPlan::corruption_storm(plan_seed),
            "stall" => {
                let ms: u64 = param
                    .map(|p| p.parse().map_err(|_| format!("bad stall ms '{p}'")))
                    .transpose()?
                    .unwrap_or(400);
                FaultPlan::stall(plan_seed, victim, Duration::from_millis(ms))
            }
            "crash" => {
                let at: usize = param
                    .map(|p| p.parse().map_err(|_| format!("bad crash task '{p}'")))
                    .transpose()?
                    .unwrap_or(1);
                FaultPlan::crash(plan_seed, victim, at)
            }
            "blackhole" => FaultPlan::blackhole(plan_seed, victim, (victim + 1) % nodes),
            other => Err(format!("unknown plan '{other}'"))?,
        })
    };
    let run_one = |plan: &FaultPlan| -> (ChaosOutcome, RuntimeReport) {
        match builder.clone().chaos(plan).fault_tolerance(ft).sync(&grads) {
            Err(e) => (
                ChaosOutcome::Failed(e.to_string()),
                RuntimeReport::default(),
            ),
            Ok(out) => {
                let report = out.report.expect("thread backend always reports");
                let identical = clean
                    .flows
                    .iter()
                    .zip(&out.flows)
                    .all(|(a, b)| a.per_node == b.per_node);
                let outcome = if identical {
                    ChaosOutcome::Exact
                } else if report.faults.degraded_chunks > 0 {
                    ChaosOutcome::Degraded
                } else {
                    ChaosOutcome::Diverged
                };
                (outcome, report)
            }
        }
    };

    if flags.contains_key("single") {
        let kind = flags
            .get("plan")
            .map(String::as_str)
            .unwrap_or("recoverable");
        let plan = build_plan(kind, seed)?;
        let recoverable = plan.is_recoverable(ft.retry_budget);
        // Propagate protocol failures to the exit code: the
        // structured error (naming node/peer/task) goes to stderr.
        let out = builder
            .clone()
            .chaos(&plan)
            .fault_tolerance(ft)
            .sync(&grads)
            .map_err(|e| e.to_string())?;
        let report = out.report.expect("thread backend always reports");
        let identical = clean
            .flows
            .iter()
            .zip(&out.flows)
            .all(|(a, b)| a.per_node == b.per_node);
        println!(
            "chaos plan '{kind}' (fault seed {seed}) survived on {nodes} nodes ({} / {})",
            strategy.label(),
            algorithm.label()
        );
        println!("bit-identical to fault-free: {identical}");
        println!("{report}");
        if recoverable && policy != DegradePolicy::Partial && !identical {
            return Err("recoverable plan did not reproduce the fault-free bits".into());
        }
        if let Some(path) = flags.get("trace") {
            // Re-run traced so the timeline carries the same plan.
            let tracer = Tracer::new("casync-chaos");
            builder
                .clone()
                .chaos(&plan)
                .fault_tolerance(ft)
                .trace(&tracer)
                .sync(&grads)
                .map_err(|e| e.to_string())?;
            export_trace(&tracer.finish(), path)?;
        }
        return Ok(());
    }

    let seeds: u64 = flag(flags, "seeds")?.unwrap_or(4);
    let kinds: Vec<String> = match flags.get("plan") {
        Some(k) => vec![k.clone()],
        None => ["recoverable", "drop-storm", "corrupt-storm"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    };
    let mut table = Table::new(&[
        ("plan", Align::Left),
        ("fault seed", Align::Right),
        ("injected", Align::Right),
        ("retries", Align::Right),
        ("corrupt caught", Align::Right),
        ("degraded", Align::Right),
        ("outcome", Align::Left),
    ]);
    let mut violations = 0u32;
    for kind in &kinds {
        for plan_seed in 0..seeds {
            let plan = build_plan(kind, plan_seed)?;
            let recoverable = plan.is_recoverable(ft.retry_budget);
            let (outcome, report) = run_one(&plan);
            let violated = match &outcome {
                ChaosOutcome::Exact => false,
                ChaosOutcome::Degraded => policy != DegradePolicy::Partial,
                ChaosOutcome::Diverged => true,
                ChaosOutcome::Failed(_) => recoverable && policy != DegradePolicy::Abort,
            };
            violations += u32::from(violated);
            let label = match &outcome {
                ChaosOutcome::Exact => "exact".to_string(),
                ChaosOutcome::Degraded => "degraded".to_string(),
                ChaosOutcome::Diverged => "DIVERGED".to_string(),
                ChaosOutcome::Failed(e) => {
                    format!("failed: {}", e.lines().next().unwrap_or_default())
                }
            };
            table.row(vec![
                kind.clone(),
                plan_seed.to_string(),
                report.faults.total_injected().to_string(),
                report.faults.retries.to_string(),
                report.faults.corruptions_detected.to_string(),
                report.faults.degraded_chunks.to_string(),
                if violated {
                    format!("{label} (VIOLATION)")
                } else {
                    label
                },
            ]);
        }
    }
    println!(
        "chaos survival matrix: {nodes} nodes, {} / {}, policy {policy:?}",
        strategy.label(),
        algorithm.label()
    );
    println!("{}", table.render());
    if violations > 0 {
        return Err(format!("{violations} chaos expectation(s) violated"));
    }
    println!("all expectations held: recoverable plans reproduced the fault-free bits");
    Ok(())
}

/// Validates, writes, and read-backs a trace; prints the textual
/// utilization and latency views.
fn export_trace(trace: &Trace, path: &str) -> Result<(), String> {
    trace
        .validate()
        .map_err(|empty| format!("trace has empty tracks: {}", empty.join(", ")))?;
    let json = hipress::trace::chrome::export(trace);
    std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
    // Read back through the crate's own parser: what was written is
    // exactly what a viewer will load.
    let back = hipress::trace::chrome::import(&json).map_err(|e| e.to_string())?;
    if &back != trace {
        return Err(format!("{path}: export/import round trip lost data"));
    }
    println!(
        "\ntrace: {} events on {} tracks -> {path} (load in chrome://tracing or ui.perfetto.dev)",
        trace.len(),
        trace.tracks().len()
    );
    println!("\n{}", view::utilization_bars(trace, 60));
    println!("{}", view::latency_summary(trace));
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    hipress::trace::chrome::import(&json).map_err(|e| format!("{path}: {e}"))
}

fn load_snapshot(path: &str) -> Result<MetricsSnapshot, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    MetricsSnapshot::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The bench matrix: two models spanning compute-heavy (ResNet50) and
/// communication-heavy (Bert-base) regimes, all five compression
/// algorithms, both CaSync strategies.
const BENCH_MODELS: [&str; 2] = ["ResNet50", "Bert-base"];

fn bench_algorithms() -> [Algorithm; 5] {
    [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.05 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.05 },
        Algorithm::GradDrop { rate: 0.05 },
    ]
}

/// Scaled-down per-model gradient sizes for the thread-engine side of
/// the matrix: the model's largest gradient shrunk to a tractable
/// element count (so the bench finishes in seconds) plus a small
/// companion, keeping per-model differences visible.
fn bench_elems(model: DnnModel) -> Vec<usize> {
    let spec = model.spec();
    let max_elems = (spec.max_gradient_bytes() / 4) as usize;
    vec![(max_elems / 1024).clamp(1024, 16384), 768]
}

/// Runs the full matrix on both engines and returns the two
/// registries' snapshots `(runtime, sim)`. The runtime-side registry
/// is supplied by the caller so `bench --listen` can serve it live
/// while the matrix is still filling it.
fn run_bench_matrix(
    nodes: usize,
    seed: u64,
    runtime: &Registry,
) -> Result<(MetricsSnapshot, MetricsSnapshot), String> {
    use hipress::tensor::synth::{generate, GradientShape};
    use hipress::tensor::Tensor;
    let sim = Registry::new();
    for name in BENCH_MODELS {
        let model = DnnModel::by_name(name).expect("bench model exists");
        let elems = bench_elems(model);
        let grads: Vec<Vec<Tensor>> = (0..nodes)
            .map(|w| {
                elems
                    .iter()
                    .enumerate()
                    .map(|(g, &n)| {
                        generate(
                            n,
                            GradientShape::Gaussian { std_dev: 1.0 },
                            (w * 1000 + g) as u64,
                        )
                    })
                    .collect()
            })
            .collect();
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            for alg in bench_algorithms() {
                HiPress::new(strat)
                    .algorithm(alg)
                    .partitions(2)
                    .seed(seed)
                    .backend(Backend::Threads(nodes))
                    .metrics(&runtime.scope(&[("model", model.name())]))
                    .sync(&grads)
                    .map_err(|e| format!("{} x {} x {name}: {e}", strat.label(), alg.label()))?;
                let job = TrainingJob::hipress(model, ClusterConfig::ec2(nodes.max(2)), strat)
                    .with_algorithm(alg);
                let r = simulate(&job).map_err(|e| {
                    format!("sim {} x {} x {name}: {e}", strat.label(), alg.label())
                })?;
                r.record_metrics(&sim.scope(&[
                    ("model", model.name()),
                    ("algorithm", &alg.label()),
                    ("strategy", strat.label()),
                ]));
            }
        }
    }
    let rev = git_rev();
    let stamp = |snap: MetricsSnapshot, kind: &str| {
        snap.with_meta("kind", kind)
            .with_meta("nodes", &nodes.to_string())
            .with_meta("seed", &seed.to_string())
            .with_meta("git_rev", &rev)
            .with_meta("created_by", "hipress bench")
    };
    Ok((
        stamp(runtime.snapshot(), "runtime"),
        stamp(sim.snapshot(), "sim"),
    ))
}

/// Test knob for the regression gate: `HIPRESS_BENCH_SLOWDOWN_PCT=p`
/// inflates every lower-is-better metric of the *current* snapshot by
/// `p` percent before the baseline comparison, so CI can prove the
/// gate trips without an actual slowdown.
fn apply_slowdown_knob(mut snap: MetricsSnapshot) -> Result<MetricsSnapshot, String> {
    let Ok(spec) = std::env::var("HIPRESS_BENCH_SLOWDOWN_PCT") else {
        return Ok(snap);
    };
    let pct: f64 = spec
        .parse()
        .map_err(|_| format!("bad HIPRESS_BENCH_SLOWDOWN_PCT '{spec}'"))?;
    let factor = 1.0 + pct / 100.0;
    let keys: Vec<_> = snap.keys().cloned().collect();
    for key in keys {
        if Polarity::of_name(&key.name) != Polarity::LowerIsBetter {
            continue;
        }
        let scaled = match snap.get(&key).cloned().expect("key just listed") {
            MetricValue::Counter(c) => MetricValue::Counter((c as f64 * factor) as u64),
            MetricValue::Gauge(g) => MetricValue::Gauge(g * factor),
            MetricValue::Histogram(mut h) => {
                h.sum = (h.sum as f64 * factor) as u64;
                MetricValue::Histogram(h)
            }
            MetricValue::Series(pts) => {
                MetricValue::Series(pts.into_iter().map(|(i, v)| (i, v * factor)).collect())
            }
        };
        snap.insert(key, scaled);
    }
    Ok(snap)
}

/// One summary row per (model, strategy, algorithm) in the snapshot.
fn bench_summary(snap: &MetricsSnapshot) -> Table {
    let mut table = Table::new(&[
        ("model", Align::Left),
        ("strategy", Align::Left),
        ("algorithm", Align::Left),
        ("wall", Align::Right),
        ("savings", Align::Right),
    ]);
    for (key, value) in snap.iter().filter(|(k, _)| k.name == names::WALL_NS) {
        let label = |name: &str| key.labels.get(name).unwrap_or("?").to_string();
        let savings = snap
            .get(&hipress::metrics::Key::new(
                names::COMPRESSION_SAVINGS,
                key.labels.clone(),
            ))
            .map(|v| format!("{:.1}x", v.scalar()))
            .unwrap_or_else(|| "-".into());
        table.row(vec![
            label("model"),
            label("strategy"),
            label("algorithm"),
            fmt_duration_ns(value.scalar() as u64),
            savings,
        ]);
    }
    table
}

/// Runs the bench matrix, writes `BENCH_runtime.json`/`BENCH_sim.json`
/// (verified through the crate's own parser), and optionally gates
/// against a baseline. The baseline's `kind` meta picks which side is
/// compared: a `kind=sim` baseline gates the deterministic simulator
/// snapshot (reproducible on any host), anything else gates the
/// measured runtime snapshot (wall clock — compare on the same host).
fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    let nodes: usize = flag(flags, "nodes")?.unwrap_or(3);
    if flags.contains_key("require-overlap") {
        // The gate has its own default cluster size: the 4-node ring
        // chain leaves enough per-node idle time for pipelining to
        // reclaim; 3 nodes keep everyone too busy to show a margin.
        let gate_nodes = flag(flags, "nodes")?.unwrap_or(4);
        return overlap_gate(gate_nodes);
    }
    let tolerance: f64 = flag(flags, "tolerance")?.unwrap_or(25.0);
    let dir = flags.get("dir").map(String::as_str).unwrap_or(".");
    let baseline = flags
        .get("baseline")
        .map(|p| load_snapshot(p).map(|s| (p, s)))
        .transpose()?;
    let want_sim = baseline
        .as_ref()
        .is_some_and(|(_, b)| b.meta.get("kind").map(String::as_str) == Some("sim"));
    let linger_ms: u64 = flag(flags, "linger-ms")?.unwrap_or(0);
    // `bench --listen` serves the runtime-side registry while the
    // matrix fills it, so an operator can scrape /metrics mid-bench.
    let matrix_reg = Registry::new();
    let hub = if let Some(addr) = flags.get("listen") {
        let hub = Telemetry::new(matrix_reg.clone(), WatchConfig::default());
        let server = hipress::obs::Server::bind(addr, hub.clone()).map_err(|e| e.to_string())?;
        println!("telemetry: listening on {}", server.addr());
        Some(hub)
    } else {
        None
    };
    let finish = |r: Result<(), String>| {
        if let Some(hub) = &hub {
            hub.mark_done();
            if linger_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(linger_ms));
            }
        }
        r
    };
    let current = match flags.get("snapshot") {
        // Gate a previously written snapshot without re-running (fold
        // it into the served registry so /metrics still shows it).
        Some(path) => {
            let snap = load_snapshot(path)?;
            if hub.is_some() {
                matrix_reg.root().absorb_snapshot(&snap);
            }
            snap
        }
        None => {
            let (rt_snap, sim_snap) = run_bench_matrix(nodes, 7, &matrix_reg)?;
            let rt_path = format!("{dir}/BENCH_runtime.json");
            let sim_path = format!("{dir}/BENCH_sim.json");
            for (path, snap) in [(&rt_path, &rt_snap), (&sim_path, &sim_snap)] {
                std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
                // Read back through the crate's own parser: what was
                // written is exactly what the gate will load.
                if &load_snapshot(path)? != snap {
                    return Err(format!("{path}: write/read round trip lost data"));
                }
                println!("wrote {path} ({} metrics)", snap.len());
            }
            print!("{}", bench_summary(&rt_snap).render_indented("  "));
            if want_sim {
                sim_snap
            } else {
                rt_snap
            }
        }
    };
    let Some((baseline_path, baseline)) = baseline else {
        return finish(Ok(()));
    };
    let current = apply_slowdown_knob(current)?;
    let diff = MetricsDiff::between(&baseline, &current);
    let regressions = diff.regressions(tolerance);
    finish(if regressions.is_empty() {
        println!(
            "perf gate: {} shared metric(s) within {tolerance}% of {baseline_path}",
            diff.rows.len()
        );
        Ok(())
    } else {
        for row in &regressions {
            println!("REGRESSED {row}");
        }
        Err(format!(
            "{} metric(s) regressed beyond {tolerance}% vs {baseline_path}",
            regressions.len()
        ))
    })
}

/// The pipelining gate (`bench --require-overlap`): the same 128
/// iterations of an uncompressed CaSync-Ring pass, run serially
/// (window 1) and pipelined (window 16) as real OS processes over the
/// loopback TCP mesh; median-of-5 pipelined wall time must beat
/// serial, or the gate fails. The result flows are bit-identical
/// either way (per-task codec seeding), so the speedup is pure
/// overlap, not skipped work.
///
/// The shape is chosen for where pipelining genuinely pays on a
/// small host: one tiny unpartitioned gradient makes each ring pass a
/// single dependency chain whose TCP hops park every process at once,
/// and cross-iteration work is the only way to keep the cores busy.
/// Compute-heavy shapes (large gradients, codecs) are CPU-bound here
/// and show no wall-clock margin on single-core machines even though
/// their span overlap is just as real.
fn overlap_gate(nodes: usize) -> Result<(), String> {
    use hipress::tensor::synth::{generate, GradientShape};
    use hipress::tensor::Tensor;
    let elems = [512usize];
    let iters = 128u32;
    let grads: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            elems
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        (w * 1000 + g) as u64,
                    )
                })
                .collect()
        })
        .collect();
    let run_once = |window: u32| -> Result<RuntimeReport, String> {
        let out = HiPress::new(Strategy::CaSyncRing)
            .algorithm(Algorithm::None)
            .partitions(1)
            .seed(7)
            .backend(Backend::Processes(nodes))
            .iterations(iters)
            .pipeline_window(window)
            .sync(&grads)
            .map_err(|e| e.to_string())?;
        Ok(out.report.expect("process backend always reports"))
    };
    // Warm up both shapes, then interleave the measured runs so
    // machine drift hits serial and pipelined alike.
    run_once(1)?;
    run_once(16)?;
    let mut serial = Vec::new();
    let mut piped = Vec::new();
    let mut overlap = 0.0f64;
    for _ in 0..5 {
        serial.push(run_once(1)?.wall_ns);
        let r = run_once(16)?;
        overlap = overlap.max(r.pipeline_overlap());
        piped.push(r.wall_ns);
    }
    serial.sort_unstable();
    piped.sort_unstable();
    let (ms, mp) = (serial[2], piped[2]);
    println!(
        "pipelining gate: {nodes} processes over loopback TCP, {iters} iterations, \
         casync-ring / uncompressed, {} elems",
        elems.map(|e| e.to_string()).join(","),
    );
    println!(
        "  serial (window 1):     median {} over 5 runs",
        fmt_duration_ns(ms)
    );
    println!(
        "  pipelined (window 16): median {} over 5 runs ({:.2}x, overlap efficiency {:.2})",
        fmt_duration_ns(mp),
        ms as f64 / mp as f64,
        overlap
    );
    if mp < ms {
        println!("pipelined beats serial: gate holds");
        Ok(())
    } else {
        Err("pipelined run did not beat the serial run".into())
    }
}

/// Serves a previously written metrics snapshot over the embedded
/// telemetry server: the file is folded into a live [`Registry`] and
/// exposed at `/metrics` (with `/healthz` reporting `done`) until the
/// process is interrupted.
fn cmd_serve(flags: &HashMap<String, String>, file: Option<&str>) -> Result<(), String> {
    let path = file.ok_or("usage: hipress serve <BENCH.json> [--listen ADDR]")?;
    let snap = load_snapshot(path)?;
    let registry = Registry::new();
    registry.root().absorb_snapshot(&snap);
    let hub = Telemetry::new(registry, WatchConfig::default());
    // A snapshot is a finished run: /events terminates immediately and
    // the heartbeat scanner stays quiet.
    hub.mark_done();
    let addr = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:9464");
    let server = hipress::obs::Server::bind(addr, hub).map_err(|e| e.to_string())?;
    println!(
        "telemetry: listening on {} ({} metric(s) from {path}; ctrl-c to stop)",
        server.addr(),
        snap.len()
    );
    loop {
        std::thread::park();
    }
}

/// Fetches one endpoint from a running telemetry server with the
/// crate's own std-TCP client and prints the body (the CI smoke step
/// uses this instead of assuming curl exists).
fn cmd_scrape(
    flags: &HashMap<String, String>,
    addr: Option<&str>,
    path: Option<&str>,
) -> Result<(), String> {
    let usage = "usage: hipress scrape <addr> </metrics|/healthz|/report.json|/events> [--lines N]";
    let addr = addr.ok_or(usage)?;
    let path = path.ok_or(usage)?;
    let lines: Option<usize> = flag(flags, "lines")?;
    let (status, body) =
        hipress::obs::serve::fetch(addr, path, lines).map_err(|e| e.to_string())?;
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    if status != 200 {
        return Err(format!("{path}: HTTP {status}"));
    }
    Ok(())
}

/// Renders a snapshot file as a dashboard, canonical JSON, or
/// Prometheus text.
fn cmd_report(flags: &HashMap<String, String>, file: Option<&str>) -> Result<(), String> {
    let path = file.ok_or("usage: hipress report <BENCH.json> [--json | --prom]")?;
    let snap = load_snapshot(path)?;
    if flags.contains_key("json") {
        println!("{}", snap.to_json());
    } else if flags.contains_key("prom") {
        print!("{}", hipress::metrics::prom::render(&snap));
    } else {
        print!("{}", metrics_view::render(&snap));
    }
    Ok(())
}

/// Compares two exported traces: per-category latency diff plus
/// side-by-side utilization bars on a common time scale.
fn cmd_trace_diff(a: Option<&str>, b: Option<&str>) -> Result<(), String> {
    let usage = "usage: hipress trace-diff <a.json> <b.json>";
    let (pa, pb) = (a.ok_or(usage)?, b.ok_or(usage)?);
    let (ta, tb) = (load_trace(pa)?, load_trace(pb)?);
    let diff = TraceDiff::compare(&ta, &tb);
    println!("{diff}");
    println!("{}", view::side_by_side(&ta, &tb, 60));
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let alg = flag(flags, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let alg = if alg == Algorithm::None {
        Algorithm::OneBit
    } else {
        alg
    };
    let byteps_cluster = if flags.contains_key("local") {
        cluster
    } else {
        cluster.with_tcp()
    };
    let jobs: Vec<(String, TrainingJob)> = vec![
        (
            "BytePS".into(),
            TrainingJob::baseline(model, byteps_cluster, Strategy::BytePs),
        ),
        (
            "Ring".into(),
            TrainingJob::baseline(model, cluster, Strategy::HorovodRing),
        ),
        (
            format!("BytePS(OSS-{})", alg.label()),
            TrainingJob::baseline(model, byteps_cluster, Strategy::BytePs).with_algorithm(alg),
        ),
        (
            format!("HiPress-CaSync-PS({})", alg.label()),
            TrainingJob::hipress(model, cluster, Strategy::CaSyncPs).with_algorithm(alg),
        ),
        (
            format!("HiPress-CaSync-Ring({})", alg.label()),
            TrainingJob::hipress(model, cluster, Strategy::CaSyncRing).with_algorithm(alg),
        ),
    ];
    let mut table = Table::new(&[
        ("system", Align::Left),
        ("samples/s", Align::Right),
        ("scaling", Align::Right),
    ]);
    for (label, job) in jobs {
        let r = simulate(&job).map_err(|e| e.to_string())?;
        table.row(vec![
            label,
            format!("{:.0}", r.throughput),
            format!("{:.2}", r.scaling_efficiency),
        ]);
    }
    print!("{table}");
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let strategy = flag(flags, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(flags, "algorithm")?.unwrap_or(Algorithm::OneBit);
    if algorithm == Algorithm::None {
        return Err("planning needs a compression algorithm".into());
    }
    let registry = Registry::new();
    let planner = Planner::profile(&cluster, strategy, algorithm)
        .map_err(|e| e.to_string())?
        .with_metrics(&registry.scope(&[("model", model.name())]));
    println!(
        "selective compression threshold: {}",
        fmt_bytes(planner.compression_threshold())
    );
    let mut table = Table::new(&[
        ("gradient", Align::Left),
        ("size", Align::Right),
        ("compress", Align::Right),
        ("K", Align::Right),
    ]);
    let spec = model.spec();
    for layer in &spec.layers {
        let plan = planner.plan_gradient(layer.bytes);
        table.row(vec![
            layer.name.clone(),
            fmt_bytes(layer.bytes),
            (if plan.compress { "yes" } else { "no" }).to_string(),
            plan.partitions.to_string(),
        ]);
    }
    print!("{table}");
    println!(
        "cost-model evaluations: {}",
        registry.snapshot().total_counter(names::PLANNER_EVALS)
    );
    Ok(())
}

fn cmd_lint(flags: &HashMap<String, String>, file: Option<&str>) -> Result<(), String> {
    use hipress::casync::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
    use hipress::compll::algorithms as algs;

    // A single DSL file: dataflow-check it and stop.
    if let Some(path) = file {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = hipress::lint::check_source(&source).map_err(|e| e.to_string())?;
        if !report.is_clean() {
            println!("{}", report.render());
        }
        println!(
            "{path}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        return if report.error_count() == 0 {
            Ok(())
        } else {
            Err(format!("{path}: lint errors"))
        };
    }

    // Plan verification across strategy x algorithm x cluster size x
    // partitioning, over a gradient mix with large, medium, and tiny
    // (zero-chunk-producing) gradients.
    let strategies: Vec<Strategy> = match flag(flags, "strategy")? {
        Some(s) => vec![s],
        None => Strategy::all().to_vec(),
    };
    let algorithms: Vec<Algorithm> = match flag(flags, "algorithm")? {
        Some(a) => vec![a],
        None => ["none", "onebit", "tbq", "terngrad", "dgc", "graddrop"]
            .into_iter()
            .filter_map(Algorithm::paper_default)
            .collect(),
    };
    let node_counts: Vec<usize> = match flag(flags, "nodes")? {
        Some(n) => vec![n],
        None => vec![2, 3, 5],
    };
    let sizes: [u64; 3] = [4096, 65536, 260];
    let mut graphs = 0usize;
    let mut compositions = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for &strat in &strategies {
        for algorithm in &algorithms {
            let compressor = algorithm.build();
            for &nodes in &node_counts {
                for partitions in [1usize, 3] {
                    let cluster = ClusterConfig::ec2(nodes);
                    let iter = IterationSpec {
                        gradients: sizes
                            .iter()
                            .enumerate()
                            .map(|(g, &bytes)| SyncGradient {
                                name: format!("g{g}"),
                                bytes,
                                ready_offset_ns: (sizes.len() - g) as u64 * 1000,
                                plan: GradPlan {
                                    compress: compressor.is_some(),
                                    partitions,
                                },
                            })
                            .collect(),
                        compression: compressor.as_deref().map(CompressionSpec::of),
                    };
                    let graph = strat
                        .build(&cluster, &iter)
                        .map_err(|e| format!("{strat:?}/{nodes} nodes: {e}"))?;
                    let report = hipress::lint::verify_graph(&graph, nodes);
                    graphs += 1;
                    errors += report.error_count();
                    warnings += report.warning_count();
                    if !report.is_clean() {
                        println!(
                            "{} x {} x {nodes} nodes x K={partitions} ({} tasks):",
                            strat.label(),
                            algorithm.label(),
                            graph.len()
                        );
                        println!("{}", report.render());
                    }
                    // CaSync graphs additionally run pipelined on
                    // CaSync-RT: compose each into overlapping
                    // iterations and check the cross-iteration
                    // properties (P017-P019) at several windows.
                    // Baseline strategies never pipeline.
                    if strat.is_casync() {
                        for window in [1u32, 2, 4] {
                            let r = hipress::lint::verify_pipelined(
                                &graph,
                                nodes,
                                &hipress::lint::PipelineSpec::unshared(8, window),
                            );
                            compositions += 1;
                            errors += r.error_count();
                            warnings += r.warning_count();
                            if !r.is_clean() {
                                println!(
                                    "{} x {} x {nodes} nodes x K={partitions} pipelined w{window}:",
                                    strat.label(),
                                    algorithm.label(),
                                );
                                println!("{}", r.render());
                            }
                        }
                    }
                }
            }
        }
    }

    // Dataflow analysis of every shipped CompLL program.
    let programs: Vec<(String, String)> = vec![
        ("onebit".into(), algs::ONEBIT_DSL.to_string()),
        ("tbq".into(), algs::TBQ_DSL.to_string()),
        ("dgc".into(), algs::DGC_DSL.to_string()),
        ("graddrop".into(), algs::GRADDROP_DSL.to_string()),
        ("adacomp".into(), algs::ADACOMP_DSL.to_string()),
        (
            "terngrad:1".into(),
            algs::TERNGRAD_DSL_TEMPLATE.replace("{U}", "uint1"),
        ),
        (
            "terngrad:2".into(),
            algs::TERNGRAD_DSL_TEMPLATE.replace("{U}", "uint2"),
        ),
        (
            "terngrad:4".into(),
            algs::TERNGRAD_DSL_TEMPLATE.replace("{U}", "uint4"),
        ),
        (
            "terngrad:8".into(),
            algs::TERNGRAD_DSL_TEMPLATE.replace("{U}", "uint8"),
        ),
    ];
    for (name, source) in &programs {
        let report = hipress::lint::check_source(source)
            .map_err(|e| format!("shipped program {name}: {e}"))?;
        errors += report.error_count();
        warnings += report.warning_count();
        if !report.is_clean() {
            println!("{name}:");
            println!("{}", report.render());
        }
    }

    println!(
        "linted {graphs} task graphs ({compositions} pipelined compositions) and {} CompLL \
         programs: {errors} error(s), {warnings} warning(s)",
        programs.len()
    );
    // The builder matrix and shipped programs must be warning-clean,
    // not merely error-free — ci.sh relies on this.
    if errors > 0 || warnings > 0 {
        return Err(format!("{errors} lint error(s), {warnings} warning(s)"));
    }
    Ok(())
}

fn cmd_verify(flags: &HashMap<String, String>) -> Result<(), String> {
    use hipress::verify::{
        check_config, check_elastic, elastic_matrix, matrix, ElasticMutation, Mutation, Outcome,
        Stats,
    };

    // `--mutant` names one defect from either family: the wire/FT
    // alphabet is seeded into the wire matrix, the elastic alphabet
    // into the epoch-transition matrix; the other matrix runs clean.
    let seeded = flags.get("mutant");
    let mutation = seeded.and_then(|name| Mutation::from_name(name));
    let elastic_mutation = seeded.and_then(|name| ElasticMutation::from_name(name));
    if let (Some(name), None, None) = (seeded, mutation, elastic_mutation) {
        let known: Vec<&str> = Mutation::ALL
            .iter()
            .map(|m| m.name())
            .chain(ElasticMutation::ALL.iter().map(|m| m.name()))
            .collect();
        return Err(format!(
            "unknown mutant '{name}' (known: {})",
            known.join(", ")
        ));
    }

    // Both matrices run on the one explorer; a row is the scenario's
    // statistics and, if refuted, its verdict and counterexample.
    fn row<V: Display>(
        name: &str,
        out: Outcome<V>,
    ) -> (String, Stats, Option<(String, Vec<String>)>) {
        let refuted = out.violation.map(|(v, trace)| (v.to_string(), trace));
        (name.to_string(), out.stats, refuted)
    }
    let wire = matrix()
        .into_iter()
        .map(|s| row(s.name, check_config(&s.cfg, mutation, true)));
    let elastic = elastic_matrix()
        .into_iter()
        .map(|s| row(s.name, check_elastic(&s.cfg, elastic_mutation, true)));

    let mut table = Table::new(&[
        ("scenario", Align::Left),
        ("states", Align::Right),
        ("transitions", Align::Right),
        ("pruned", Align::Right),
        ("terminals", Align::Right),
        ("verdict", Align::Left),
    ]);
    let mut violated = 0usize;
    let mut states = 0usize;
    let mut transitions = 0usize;
    let mut pruned = 0usize;
    let mut first_trace: Option<(String, Vec<String>)> = None;
    for (name, stats, refuted) in wire.chain(elastic) {
        states += stats.states;
        transitions += stats.transitions;
        pruned += stats.pruned;
        let verdict = match refuted {
            None => "exhausted clean".to_string(),
            Some((v, trace)) => {
                violated += 1;
                first_trace.get_or_insert((name.clone(), trace));
                format!("VIOLATED: {v}")
            }
        };
        table.row(vec![
            name,
            stats.states.to_string(),
            stats.transitions.to_string(),
            stats.pruned.to_string(),
            stats.terminals.to_string(),
            verdict,
        ]);
    }
    print!("{table}");
    println!(
        "explored {states} states / {transitions} transitions; sleep-set reduction pruned \
         {pruned} ({:.0}% of the unreduced frontier)",
        100.0 * pruned as f64 / (transitions + pruned).max(1) as f64
    );

    match (seeded, violated) {
        (None, 0) => {
            println!("protocol verified: every scenario exhausted violation-free");
            Ok(())
        }
        (None, n) => Err(format!("{n} scenario(s) violated the protocol properties")),
        (Some(name), 0) => Err(format!(
            "seeded defect '{name}' went undetected — the checker lost its teeth"
        )),
        (Some(name), n) => {
            if let Some((scenario, trace)) = &first_trace {
                println!("\ncounterexample ({scenario}):");
                for line in trace {
                    println!("  {line}");
                }
            }
            Err(format!("{n} scenario(s) refute seeded defect '{name}'"))
        }
    }
}

fn cmd_compile(path: Option<&str>) -> Result<(), String> {
    let path = path.ok_or("usage: hipress compile <file.dsl>")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let alg =
        CompiledAlgorithm::new("cli", &source, param_values(&[])).map_err(|e| e.to_string())?;
    let report = alg.loc_report();
    println!(
        "compiled OK: {} logic lines, {} udf lines, operators {:?}, integration 0",
        report.logic, report.udf, report.operators
    );
    println!("\n--- generated CUDA ---\n{}", alg.cuda_source());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn positionals_are_seen_wherever_they_stand() {
        for line in ["--json FILE", "FILE --json"] {
            let (flags, positional) = parse_flags("report", &args(line)).unwrap();
            assert_eq!(positional, ["FILE"], "{line}");
            assert_eq!(flags["json"], "true", "{line}");
        }
        let (flags, positional) = parse_flags("scrape", &args("--lines 3 ADDR /events")).unwrap();
        assert_eq!(positional, ["ADDR", "/events"]);
        assert_eq!(flags["lines"], "3");
    }

    #[test]
    fn a_value_flag_without_its_value_is_named() {
        for line in ["--model VGG19 --nodes", "--nodes --local"] {
            let err = parse_flags("sim", &args(line)).unwrap_err();
            assert_eq!(err, "--nodes needs a value", "{line}");
        }
        // `--baseline` is a toggle for `sim` but a path for `bench`.
        assert!(parse_flags("sim", &args("--baseline")).is_ok());
        let err = parse_flags("bench", &args("--baseline")).unwrap_err();
        assert_eq!(err, "--baseline needs a value");
    }

    #[test]
    fn bad_codec_and_strategy_values_are_errors_not_panics() {
        let line = args("--algorithm dgc:2 --strategy mesh --nodes x");
        let (flags, _) = parse_flags("run", &line).unwrap();
        let err = flag::<Algorithm>(&flags, "algorithm").unwrap_err();
        assert!(err.contains("dgc rate must be in (0, 1]"), "{err}");
        assert!(flag::<Strategy>(&flags, "strategy").is_err());
        assert!(flag::<usize>(&flags, "nodes").is_err());
        assert_eq!(flag::<u64>(&flags, "seed"), Ok(None));
    }
}
