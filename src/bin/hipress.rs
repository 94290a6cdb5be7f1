//! The `hipress` command-line interface: simulate training throughput,
//! synchronize gradients for real on CaSync-RT (threads or processes),
//! inject faults, gate benchmarks, inspect planner decisions, compile
//! and lint CompLL programs, and model-check the protocol without
//! writing Rust.
//!
//! Every command is one entry of [`COMMANDS`]: its name, positional
//! synopsis, the function that runs it, its about text and its flags.
//! `main` dispatches from that table, [`parse_flags`] parses against it
//! (an undeclared flag is an error naming it, and whether a flag takes
//! a value comes from its declaration), and `hipress help` renders it.
//!
//! ```text
//! hipress sim --model VGG19 --nodes 16 --strategy casync-ps --algorithm onebit
//! hipress run --nodes 4 --algorithm onebit --trace rt.json
//! hipress chaos --single --plan crash --victim 1
//! hipress help
//! ```

use hipress::casync::interp::FlowOutcome;
use hipress::compll::{param_values, CompiledAlgorithm};
use hipress::metrics::{names, view as metrics_view, MetricValue, Polarity};
use hipress::prelude::*;
use hipress::tensor::Tensor;
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
    let Some(name) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => parse_flags(cmd, &args[1..]).and_then(|a| (cmd.run)(&a)),
        None => Err(format!("unknown command '{name}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One command: `main` runs `run` on the command line parsed against
/// `flags`; `usage` renders the rest.
struct Command {
    name: &'static str,
    /// The positional arguments: `<required>` or `[optional]`.
    synopsis: &'static str,
    run: Run,
    about: &'static str,
    flags: &'static [Flag],
}

type Run = fn(&Args) -> Result<(), String>;

impl Command {
    const fn new(name: &'static str, synopsis: &'static str, run: Run) -> Command {
        Command {
            name,
            synopsis,
            run,
            about: "",
            flags: &[],
        }
    }

    const fn about(self, about: &'static str) -> Command {
        Command { about, ..self }
    }

    const fn flags(self, flags: &'static [Flag]) -> Command {
        Command { flags, ..self }
    }
}

/// One `--name` flag of a command.
struct Flag {
    name: &'static str,
    /// The value's placeholder; `None` for a boolean switch.
    metavar: Option<&'static str>,
    required: bool,
    help: &'static str,
}

impl Flag {
    /// An optional flag taking a value.
    const fn value(name: &'static str, metavar: &'static str) -> Flag {
        Flag {
            name,
            metavar: Some(metavar),
            required: false,
            help: "",
        }
    }

    /// A flag taking a value that the command cannot run without.
    const fn required(name: &'static str, metavar: &'static str) -> Flag {
        Flag {
            required: true,
            ..Flag::value(name, metavar)
        }
    }

    /// A boolean flag: present or not, never taking a value.
    const fn switch(name: &'static str) -> Flag {
        Flag {
            metavar: None,
            ..Flag::value(name, "")
        }
    }

    /// The flag's one-line help; a shared flag whose default differs
    /// for one command is restated with that command's help.
    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    /// `--name` or `--name METAVAR`.
    fn usage(&self) -> String {
        match self.metavar {
            Some(m) => format!("--{} {m}", self.name),
            None => format!("--{}", self.name),
        }
    }
}

const REQUIRED: &str = "parse_flags rejects a command line without its required flags";

// Flags several commands share.
const MODEL: Flag = Flag::required("model", "NAME").help("a model of `hipress models`");
const NODES: Flag = Flag::value("nodes", "N").help("cluster size (default 16)");
const LOCAL: Flag = Flag::switch("local").help("1080Ti/56Gbps local cluster, not EC2 V100/100Gbps");
const STRATEGY: Flag = Flag::value("strategy", "S")
    .help("casync-ps | casync-ring | byteps | ring (default casync-ps)");
const ALGORITHM: Flag = Flag::value("algorithm", "A")
    .help("none | onebit | tbq | terngrad[:bits] | dgc[:rate] | graddrop[:rate] (default onebit)");
const SEED: Flag = Flag::value("seed", "S").help("stochastic-codec seed (default 1)");
const TRACE: Flag = Flag::value("trace", "FILE").help("export a Chrome trace-event JSON here");
const JSON: Flag = Flag::switch("json").help("print the report as a metrics snapshot JSON");
const LISTEN: Flag = Flag::value("listen", "ADDR").help("serve live telemetry here (port 0: any)");
const LINGER_MS: Flag =
    Flag::value("linger-ms", "MS").help("keep serving MS after the run (default 0)");

/// Every command, in help order.
static COMMANDS: &[Command] = &[
    Command::new("models", "", |_| cmd_models()).about("List the Table 6 model zoo."),
    Command::new("sim", "", cmd_sim)
        .about("Simulate one training configuration.")
        .flags(&[
            MODEL,
            NODES,
            LOCAL,
            STRATEGY,
            ALGORITHM,
            Flag::switch("baseline").help("run the strategy's baseline runtime (no CaSync)"),
            Flag::switch("no-selective").help("compress every gradient, unpartitioned"),
            TRACE,
            JSON,
        ]),
    Command::new("run", "", cmd_run)
        .about(
            "Synchronize synthetic gradients for real on CaSync-RT — one OS
             thread, or one OS *process* over a loopback TCP mesh, per node —
             and print the measured runtime report. A process run merges every
             worker's trace onto one clock-aligned timeline (checked for
             cross-rank causality) and folds every worker's metrics into one
             snapshot. The telemetry server answers /metrics, /healthz,
             /report.json and the /events NDJSON progress stream; its SLO
             watchdog counts anomalies into alerts_total{kind}. An elastic run
             survives losing a worker: it drains to the last retired boundary,
             evicts the dead rank, re-plans over the survivors and bumps the
             membership epoch, re-admitting a restarted victim at the next
             epoch boundary (backends: processes, the default, or threads).",
        )
        .flags(&[
            NODES.help("cluster size (default 4)"),
            Flag::value("backend", "B").help("threads | processes | sim (default threads)"),
            Flag::value("iters", "I").help("iterations to run back to back (default 1)"),
            Flag::value("window", "W").help("max iterations in flight at once (default 1)"),
            STRATEGY,
            ALGORITHM,
            Flag::value("partitions", "K").help("gradient partition count (default 2)"),
            Flag::value("elems", "E1,E2,...").help("element counts (default 65536,4096,512)"),
            SEED,
            Flag::switch("cross-check").help("require processes bit-identical to threads"),
            Flag::value("kill-node", "V").help("kill this worker mid-protocol (processes)"),
            Flag::value("flight-dump", "FILE").help("dump each rank's flight ring here on failure"),
            TRACE,
            JSON,
            LISTEN,
            LINGER_MS,
            Flag::switch("elastic").help("survive a scripted rank loss"),
            Flag::value("kill-rank", "R").help("with --elastic: the rank to crash"),
            Flag::value("kill-iter", "I").help("with --elastic: the iteration it crashes at"),
            Flag::value("rejoin-after", "J").help("with --elastic: re-admit the victim from J"),
        ]),
    Command::new("serve", "<BENCH.json>", cmd_serve)
        .about("Serve a snapshot file's metrics over the telemetry server until killed.")
        .flags(&[LISTEN.help("bind address (default 127.0.0.1:9464)")]),
    Command::new("scrape", "<addr> <path>", cmd_scrape)
        .about("Print /metrics, /healthz, /report.json or /events of a telemetry server.")
        .flags(&[Flag::value("lines", "N").help("stop a streaming endpoint after N lines")]),
    Command::new("postmortem", "<dump>", cmd_postmortem)
        .about("Render a failed process run's flight dump as one cross-rank timeline."),
    Command::new("node", "", cmd_node)
        .about("(internal) One worker of a process run; --join re-attaches to an elastic one.")
        .flags(&[
            Flag::required("connect", "ADDR").help("the coordinator's address"),
            Flag::required("rank", "R").help("this worker's rank"),
            NODES.help("cluster size (required unless --join)"),
            Flag::switch("join").help("wait for admission at the next epoch boundary"),
        ]),
    Command::new("chaos", "", cmd_chaos)
        .about(
            "Synchronize on CaSync-RT over a fault-injecting fabric. By default,
             run a survival matrix (plans x fault seeds) and require every
             recoverable plan to reproduce the fault-free bits exactly. With
             --single, run one plan once: a recoverable plan must come back
             bit-identical, an unrecoverable one (crash, blackhole) exits
             non-zero with a structured error naming the failed node.",
        )
        .flags(&[
            NODES.help("cluster size (default 3)"),
            STRATEGY,
            ALGORITHM,
            SEED.help("codec seed, and --single's fault seed (default 1)"),
            Flag::value("elems", "E1,E2,...").help("element counts (default 4096,512)"),
            Flag::value("plan", "P").help(
                "none | recoverable | drop-storm | corrupt-storm | stall[:ms] | \
                 crash[:at-task] | blackhole (default: the three storm plans)",
            ),
            Flag::value("seeds", "K").help("fault seeds per plan in matrix mode (default 4)"),
            Flag::value("policy", "P")
                .help("on a straggler: wait | partial | abort (default wait)"),
            Flag::value("victim", "V").help("the stall/crash/blackhole target (default 1)"),
            Flag::value("deadline-ms", "MS").help("receive deadline per node (default 8000)"),
            Flag::switch("single").help("run one plan once and propagate its outcome"),
            TRACE,
        ]),
    Command::new("bench", "", cmd_bench)
        .about(
            "Run the model x algorithm x strategy bench matrix on the thread
             engine and the simulator and write BENCH_runtime.json and
             BENCH_sim.json. With --baseline, exit non-zero on any metric that
             regressed beyond --tolerance (a kind=sim baseline gates the
             simulator's numbers, any other the measured wall clocks). With
             --require-overlap, instead gate that pipelined iterations beat
             serial ones on median wall time over real OS processes.",
        )
        .flags(&[
            NODES.help("cluster size (default 3; 4 with --require-overlap)"),
            Flag::value("dir", "DIR").help("where to write BENCH_*.json (default .)"),
            Flag::value("snapshot", "FILE").help("gate this snapshot instead of re-running"),
            Flag::value("baseline", "FILE").help("the BENCH_*.json to gate against"),
            Flag::value("tolerance", "PCT").help("regression tolerance in percent (default 25)"),
            Flag::switch("require-overlap").help("gate that pipelining beats serial iterations"),
            LISTEN,
            LINGER_MS,
        ]),
    Command::new("report", "<BENCH.json>", cmd_report)
        .about("Render a metrics snapshot as a sparkline/table dashboard.")
        .flags(&[
            JSON.help("re-emit the snapshot as canonical JSON"),
            Flag::switch("prom").help("re-emit the snapshot as Prometheus text exposition"),
        ]),
    Command::new("compare", "", cmd_compare)
        .about("Simulate HiPress against all baselines.")
        .flags(&[
            MODEL,
            NODES,
            LOCAL,
            ALGORITHM.help("the compressed systems' codec (default onebit)"),
        ]),
    Command::new("plan", "", cmd_plan)
        .about("Show the selective compression & partitioning plan per gradient.")
        .flags(&[MODEL, NODES, LOCAL, STRATEGY, ALGORITHM]),
    Command::new("compile", "<file.dsl>", cmd_compile)
        .about("Compile a CompLL DSL program; print its LoC report and CUDA output."),
    Command::new("lint", "[file.dsl]", cmd_lint)
        .about(
            "Statically verify CaSync task graphs across the strategy x
             algorithm x cluster matrix — each CaSync graph additionally as a
             pipelined composition at windows 1, 2, and 4 — and dataflow-check
             the shipped CompLL programs; with a file, dataflow-check that
             program instead.",
        )
        .flags(&[
            STRATEGY.help("lint only this strategy (default: all)"),
            ALGORITHM.help("lint only this algorithm (default: all)"),
            NODES.help("lint only this cluster size (default: 2, 3 and 5)"),
        ]),
    Command::new("verify", "", cmd_verify)
        .about(
            "Exhaust the small-scope model-checking matrices of the CaSync-RT
             wire/FT protocol (the runtime's real state machines) and of the
             elastic epoch transition, and print per-scenario exploration
             statistics. With --mutant, the checker must refute the seeded
             defect with a counterexample trace, and the command exits
             non-zero.",
        )
        .flags(&[Flag::value("mutant", "M").help("seed this protocol defect")]),
    Command::new("trace-diff", "<a.json> <b.json>", cmd_trace_diff)
        .about("Compare two exported traces: per-category latencies, utilization bars."),
    Command::new("help", "", |_| {
        eprint!("{}", usage());
        Ok(())
    })
    .about("Print this help."),
];

/// The help text, rendered from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from(
        "hipress — compression-aware data parallel DNN training (SOSP'21 reproduction)\n\nUSAGE:\n",
    );
    for cmd in COMMANDS {
        let mut words = vec![cmd.name.to_string(), cmd.synopsis.to_string()];
        words.extend(cmd.flags.iter().filter(|f| f.required).map(Flag::usage));
        if cmd.flags.iter().any(|f| !f.required) {
            words.push("[flags]".into());
        }
        words.retain(|w| !w.is_empty());
        out += &format!("\n  hipress {}\n", words.join(" "));
        for line in cmd.about.lines() {
            out += &format!("      {}\n", line.trim_start());
        }
        let width = cmd.flags.iter().map(|f| f.usage().len()).max().unwrap_or(0);
        for f in cmd.flags {
            out += &format!("        {:<width$}  {}\n", f.usage(), f.help);
        }
    }
    out
}

/// A command line parsed against its command's table entry.
struct Args {
    cmd: &'static Command,
    flags: HashMap<&'static str, String>,
    /// At least as many as the synopsis has `<required>` ones.
    positional: Vec<String>,
}

impl Args {
    /// Flag `--name`'s value as given (`"true"` for a switch); `None`
    /// when it is absent.
    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.name == name),
            "--{name} is not declared for '{}'",
            self.cmd.name
        );
        self.flags.get(name).map(String::as_str)
    }

    /// Whether `--name` was given.
    fn on(&self, name: &str) -> bool {
        self.value(name).is_some()
    }
}

/// Splits a command's arguments into its declared `--flag [value]`s
/// and the positional arguments left over, wherever they appear. A
/// flag the command does not declare, a value flag with no value after
/// it, and a missing required flag or positional are errors naming it.
fn parse_flags(cmd: &'static Command, args: &[String]) -> Result<Args, String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        let Some(spec) = cmd.flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag --{name} for '{}'", cmd.name));
        };
        let value = match spec.metavar {
            None => "true".to_string(),
            Some(_) => match args.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("--{name} needs a value")),
            },
        };
        flags.insert(spec.name, value);
    }
    if let Some(f) = cmd
        .flags
        .iter()
        .find(|f| f.required && !flags.contains_key(f.name))
    {
        return Err(format!("--{} is required for '{}'", f.name, cmd.name));
    }
    if positional.len() < cmd.synopsis.matches('<').count() {
        return Err(format!("'{}' needs {}", cmd.name, cmd.synopsis));
    }
    Ok(Args {
        cmd,
        flags,
        positional,
    })
}

/// Parses flag `--name` with its `FromStr`; `None` when it is absent.
fn flag<T: FromStr<Err: Display>>(args: &Args, name: &str) -> Result<Option<T>, String> {
    args.value(name)
        .map(|v| v.parse().map_err(|e| format!("bad --{name} '{v}': {e}")))
        .transpose()
}

/// `--elems E1,E2,...`: the element count of each synthetic gradient.
fn elems_flag(args: &Args, default: &[usize]) -> Result<Vec<usize>, String> {
    match args.value("elems") {
        Some(spec) => spec
            .split(',')
            .map(|e| e.trim().parse().map_err(|_| format!("bad --elems '{e}'")))
            .collect(),
        None => Ok(default.to_vec()),
    }
}

/// Every worker's synthetic gradients: worker `w`'s gradient `g` holds
/// `elems[g]` Gaussian values seeded `w * 1000 + g`.
fn worker_grads(nodes: usize, elems: &[usize]) -> Vec<Vec<Tensor>> {
    use hipress::tensor::synth::{generate, GradientShape};
    let shape = GradientShape::Gaussian { std_dev: 1.0 };
    let grad = |w: usize, (g, &n): (usize, &usize)| generate(n, shape, (w * 1000 + g) as u64);
    (0..nodes)
        .map(|w| elems.iter().enumerate().map(|e| grad(w, e)).collect())
        .collect()
}

/// Requires two runs to have installed the same values, flow for flow;
/// the error names the first flow that differs `between` them.
fn same_flows(a: &[FlowOutcome], b: &[FlowOutcome], between: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{between} disagree on flow count"));
    }
    match a
        .iter()
        .zip(b)
        .find(|(x, y)| x.flow != y.flow || x.per_node != y.per_node)
    {
        Some((x, _)) => Err(format!("flow {} diverged between {between}", x.flow)),
        None => Ok(()),
    }
}

/// `--model` and the cluster `--nodes` and `--local` describe.
fn model_and_cluster(args: &Args) -> Result<(DnnModel, ClusterConfig), String> {
    let model = flag(args, "model")?.expect(REQUIRED);
    let nodes: usize = flag(args, "nodes")?.unwrap_or(16);
    let cluster = if args.on("local") {
        ClusterConfig::local(nodes)
    } else {
        ClusterConfig::ec2(nodes)
    };
    Ok((model, cluster))
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

fn cmd_sim(args: &Args) -> Result<(), String> {
    let (model, cluster) = model_and_cluster(args)?;
    let strategy = flag(args, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(args, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let mut job = if args.on("baseline") || !strategy.is_casync() {
        let cluster = if strategy == Strategy::BytePs && !args.on("local") {
            cluster.with_tcp()
        } else {
            cluster
        };
        TrainingJob::baseline(model, cluster, strategy)
    } else {
        TrainingJob::hipress(model, cluster, strategy)
    };
    job = job.with_algorithm(algorithm);
    if args.on("no-selective") {
        job.selective = false;
    }
    let tracer = args.on("trace").then(|| Tracer::new("sim"));
    let r = match &tracer {
        Some(tr) => simulate_with_tracer(&job, tr),
        None => simulate(&job),
    }
    .map_err(|e| e.to_string())?;
    if args.on("json") {
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
    } else {
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
    }
    if let (Some(path), Some(tr)) = (args.value("trace"), tracer) {
        export_trace(&tr.finish(), path)?;
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let nodes: usize = flag(args, "nodes")?.unwrap_or(4);
    let strategy = flag(args, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(args, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let partitions: usize = flag(args, "partitions")?.unwrap_or(2);
    let seed: u64 = flag(args, "seed")?.unwrap_or(1);
    let elems = elems_flag(args, &[65536, 4096, 512])?;
    let grads = worker_grads(nodes, &elems);
    let iters: u32 = flag(args, "iters")?.unwrap_or(1);
    let window: u32 = flag(args, "window")?.unwrap_or(1);
    if args.on("elastic") {
        return cmd_run_elastic(
            args, strategy, algorithm, partitions, seed, &grads, iters, window,
        );
    }
    let backend = match args.value("backend") {
        None | Some("threads") => Backend::Threads(nodes),
        Some("processes") => Backend::Processes(nodes),
        Some("sim") | Some("simulator") => Backend::Simulator,
        Some(other) => return Err(format!("unknown backend '{other}'")),
    };
    let kill_node: Option<u32> = flag(args, "kill-node")?;
    let flight_dump = args.value("flight-dump").map(std::path::PathBuf::from);
    let base = HiPress::new(strategy)
        .algorithm(algorithm)
        .partitions(partitions)
        .seed(seed)
        .iterations(iters)
        .pipeline_window(window)
        // `--kill-node k`: rank k crashes right after mesh setup, and
        // the fail-on-loss policy turns that into a failure naming it.
        .process_config(ProcessConfig {
            membership: kill_node
                .map(|k| hipress::chaos::MembershipPlan::crash(k, 0))
                .unwrap_or_default(),
            flight_dump,
            ..ProcessConfig::default()
        });

    // `--cross-check`: run the same job on real OS processes over the
    // loopback TCP mesh, on in-process threads and in the interpreter,
    // and require bit-identical flows. Every iteration syncs the same
    // gradients with the same per-task seeds, so the interpreter's one
    // iteration is the reference at any `--iters` / `--window`.
    if args.on("cross-check") {
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
        same_flows(&threads.flows, &procs.flows, "threads and processes")?;
        let sim = base
            .iterations(1)
            .pipeline_window(1)
            .backend(Backend::Simulator)
            .sync(&grads)
            .map_err(|e| format!("simulator backend: {e}"))?;
        same_flows(&sim.flows, &procs.flows, "interpreter and processes")?;
        let report = procs.report.expect("process backend always reports");
        println!(
            "cross-check OK: {} process(es) over loopback TCP bit-identical to threads and \
             the interpreter ({} / {}, {} gradients, {iters} iteration(s), window {window})",
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

    if backend == Backend::Simulator && (args.on("trace") || args.on("json")) {
        return Err("--trace/--json need a real backend: threads or processes".into());
    }
    let listen = args.value("listen");
    if backend == Backend::Simulator && listen.is_some() {
        return Err("--listen needs a real backend: threads or processes".into());
    }
    let linger_ms: u64 = flag(args, "linger-ms")?.unwrap_or(0);
    let tracer = args.on("trace").then(|| Tracer::new("casync-rt"));
    let want_json = args.on("json");
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
        let hub = Telemetry::new(reg.clone());
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
    if let (Some(path), Some(tr)) = (args.value("trace"), tracer) {
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

/// `run --elastic`: the process coordinator, scripted to crash and
/// re-admit a rank.
#[allow(clippy::too_many_arguments)]
fn cmd_run_elastic(
    args: &Args,
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    seed: u64,
    grads: &[Vec<Tensor>],
    iters: u32,
    window: u32,
) -> Result<(), String> {
    use hipress::chaos::MembershipPlan;
    use hipress::runtime::{run_processes, run_threaded_workers, Instruments};
    let kill_rank: Option<u32> = flag(args, "kill-rank")?;
    let kill_iter: Option<u32> = flag(args, "kill-iter")?;
    let rejoin_after: Option<u32> = flag(args, "rejoin-after")?;
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
    let tracer = args.on("trace").then(|| Tracer::new("casync-rt"));
    let instruments = Instruments {
        tracer: tracer.as_ref(),
        ..Instruments::default()
    };
    let pconf = ProcessConfig {
        membership: plan,
        elastic: true,
        flight_dump: args.value("flight-dump").map(std::path::PathBuf::from),
        ..ProcessConfig::default()
    };
    let run = match args.value("backend") {
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

    if args.on("cross-check") {
        // The fixed-membership reference: the full member set when the
        // run ends at full strength (no kill, or kill + rejoin), the
        // survivor set otherwise. Bit-identical flows or bust.
        let reference: Vec<Vec<Tensor>> = grads
            .iter()
            .zip(0u32..)
            .filter(|&(_, w)| rejoin_after.is_some() || kill_rank != Some(w))
            .map(|(g, _)| g.clone())
            .collect();
        let fixed = run_threaded_workers(
            strategy,
            algorithm,
            partitions,
            &reference,
            seed,
            &pcfg,
            &ProcessConfig::default(),
            Instruments::default(),
        )
        .map_err(|e| format!("fixed-membership reference run: {e}"))?;
        same_flows(
            &out.flows,
            &fixed.flows,
            "the elastic run and the fixed-membership reference",
        )?;
        println!(
            "cross-check OK: elastic continuation bit-identical to the fixed-membership run \
             over {} node(s)",
            reference.len()
        );
    }

    if let (Some(path), Some(tr)) = (args.value("trace"), tracer) {
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

fn cmd_postmortem(args: &Args) -> Result<(), String> {
    use hipress::util::codec::WireMsg as _;
    let path = &args.positional[0];
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let dump = hipress::runtime::PostmortemDump::from_bytes(&bytes)
        .map_err(|e| format!("parse {path}: {e:?}"))?;
    print!("{}", dump.render());
    Ok(())
}

/// [`Backend::Processes`] re-executes this binary as `node` workers.
fn cmd_node(args: &Args) -> Result<(), String> {
    let connect = args.value("connect").expect(REQUIRED);
    let rank: usize = flag(args, "rank")?.expect(REQUIRED);
    if args.on("join") {
        // The coordinator's Welcome carries the membership.
        return hipress::runtime::join_main(connect, rank).map_err(|e| e.to_string());
    }
    let nodes: usize = flag(args, "nodes")?.ok_or("--nodes is required for 'node' (or --join)")?;
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

fn cmd_chaos(args: &Args) -> Result<(), String> {
    use hipress::chaos::FaultPlan;
    use hipress::fabric::LinkTuning;
    use std::time::Duration;
    let nodes: usize = flag(args, "nodes")?.unwrap_or(3);
    let strategy = flag(args, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(args, "algorithm")?.unwrap_or(Algorithm::OneBit);
    let seed: u64 = flag(args, "seed")?.unwrap_or(1);
    let victim: usize = flag(args, "victim")?.unwrap_or(1);
    if victim >= nodes {
        return Err(format!("--victim {victim} out of range for {nodes} nodes"));
    }
    let deadline_ms: u64 = flag(args, "deadline-ms")?.unwrap_or(8000);
    let policy: DegradePolicy = flag(args, "policy")?.unwrap_or_default();
    let ft = FaultTolerance {
        recv_deadline: Duration::from_millis(deadline_ms),
        link: LinkTuning {
            retry_budget: 8,
            base_backoff: Duration::from_millis(3),
            max_backoff: Duration::from_millis(100),
        },
        straggler_factor: 4.0,
        straggler_floor: Duration::from_millis(100),
        policy,
    };
    let grads = worker_grads(nodes, &elems_flag(args, &[4096, 512])?);
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
    let run_one = |plan: &FaultPlan, tracer: Option<&Tracer>| -> (ChaosOutcome, RuntimeReport) {
        let mut chaos = builder.clone().chaos(plan).fault_tolerance(ft);
        if let Some(tr) = tracer {
            chaos = chaos.trace(tr);
        }
        match chaos.sync(&grads) {
            Err(e) => (
                ChaosOutcome::Failed(e.to_string()),
                RuntimeReport::default(),
            ),
            Ok(out) => {
                let report = out.report.expect("thread backend always reports");
                let exact = same_flows(&clean.flows, &out.flows, "the chaos and fault-free runs");
                let outcome = if exact.is_ok() {
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

    if args.on("single") {
        let kind = args.value("plan").unwrap_or("recoverable");
        let plan = build_plan(kind, seed)?;
        let recoverable = plan.is_recoverable(ft.link.retry_budget);
        let tracer = args.on("trace").then(|| Tracer::new("casync-chaos"));
        let (outcome, report) = run_one(&plan, tracer.as_ref());
        let identical = match outcome {
            // Propagate protocol failures to the exit code: the
            // structured error (naming node/peer/task) goes to stderr.
            ChaosOutcome::Failed(e) => return Err(e),
            ChaosOutcome::Exact => true,
            ChaosOutcome::Degraded | ChaosOutcome::Diverged => false,
        };
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
        if let (Some(path), Some(tr)) = (args.value("trace"), tracer) {
            export_trace(&tr.finish(), path)?;
        }
        return Ok(());
    }

    let seeds: u64 = flag(args, "seeds")?.unwrap_or(4);
    let kinds = match args.value("plan") {
        Some(k) => vec![k],
        None => vec!["recoverable", "drop-storm", "corrupt-storm"],
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
            let recoverable = plan.is_recoverable(ft.link.retry_budget);
            let (outcome, report) = run_one(&plan, None);
            let (label, violated) = match &outcome {
                ChaosOutcome::Exact => ("exact".into(), false),
                ChaosOutcome::Degraded => ("degraded".into(), policy != DegradePolicy::Partial),
                ChaosOutcome::Diverged => ("DIVERGED".into(), true),
                ChaosOutcome::Failed(e) => (
                    format!("failed: {}", e.lines().next().unwrap_or_default()),
                    recoverable && policy != DegradePolicy::Abort,
                ),
            };
            violations += u32::from(violated);
            table.row(vec![
                kind.to_string(),
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
    let sim = Registry::new();
    for name in BENCH_MODELS {
        let model = DnnModel::by_name(name).expect("bench model exists");
        let grads = worker_grads(nodes, &bench_elems(model));
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

/// A `kind=sim` baseline gates the deterministic simulator snapshot
/// (reproducible on any host), any other the measured runtime one
/// (wall clock: compare on the same host).
fn cmd_bench(args: &Args) -> Result<(), String> {
    let nodes: usize = flag(args, "nodes")?.unwrap_or(3);
    if args.on("require-overlap") {
        // The gate has its own default cluster size: the 4-node ring
        // chain leaves enough per-node idle time for pipelining to
        // reclaim; 3 nodes keep everyone too busy to show a margin.
        let gate_nodes = flag(args, "nodes")?.unwrap_or(4);
        return overlap_gate(gate_nodes);
    }
    let tolerance: f64 = flag(args, "tolerance")?.unwrap_or(25.0);
    let dir = args.value("dir").unwrap_or(".");
    let baseline = args
        .value("baseline")
        .map(|p| load_snapshot(p).map(|s| (p, s)))
        .transpose()?;
    let want_sim = baseline
        .as_ref()
        .is_some_and(|(_, b)| b.meta.get("kind").map(String::as_str) == Some("sim"));
    let linger_ms: u64 = flag(args, "linger-ms")?.unwrap_or(0);
    // `bench --listen` serves the runtime-side registry while the
    // matrix fills it, so an operator can scrape /metrics mid-bench.
    let matrix_reg = Registry::new();
    let hub = if let Some(addr) = args.value("listen") {
        let hub = Telemetry::new(matrix_reg.clone());
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
    let current = match args.value("snapshot") {
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
    // A metric on one side only is a failure too: a snapshot that
    // stopped emitting a row must not pass by leaving it ungated.
    let unmatched = diff.only_baseline.len() + diff.only_current.len();
    finish(if regressions.is_empty() && unmatched == 0 {
        println!(
            "perf gate: {} shared metric(s) within {tolerance}% of {baseline_path}",
            diff.rows.len()
        );
        Ok(())
    } else {
        for row in &regressions {
            println!("REGRESSED {row}");
        }
        for key in &diff.only_baseline {
            println!("MISSING {key} (only in the baseline)");
        }
        for key in &diff.only_current {
            println!("UNEXPECTED {key} (not in the baseline)");
        }
        Err(format!(
            "{} metric(s) regressed beyond {tolerance}% and {unmatched} metric(s) \
             are on one side only, vs {baseline_path}",
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
    let elems = [512usize];
    let iters = 128u32;
    let grads = worker_grads(nodes, &elems);
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

fn cmd_serve(args: &Args) -> Result<(), String> {
    let path = &args.positional[0];
    let snap = load_snapshot(path)?;
    let registry = Registry::new();
    registry.root().absorb_snapshot(&snap);
    let hub = Telemetry::new(registry);
    // A snapshot is a finished run: /events terminates immediately and
    // the heartbeat scanner stays quiet.
    hub.mark_done();
    let addr = args.value("listen").unwrap_or("127.0.0.1:9464");
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

/// The CI smoke step scrapes with this instead of assuming curl exists.
fn cmd_scrape(args: &Args) -> Result<(), String> {
    let (addr, path) = (&args.positional[0], &args.positional[1]);
    let lines: Option<usize> = flag(args, "lines")?;
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

fn cmd_report(args: &Args) -> Result<(), String> {
    let path = &args.positional[0];
    let snap = load_snapshot(path)?;
    if args.on("json") {
        println!("{}", snap.to_json());
    } else if args.on("prom") {
        print!("{}", hipress::metrics::prom::render(&snap));
    } else {
        print!("{}", metrics_view::render(&snap));
    }
    Ok(())
}

fn cmd_trace_diff(args: &Args) -> Result<(), String> {
    let (pa, pb) = (&args.positional[0], &args.positional[1]);
    let (ta, tb) = (load_trace(pa)?, load_trace(pb)?);
    let diff = TraceDiff::compare(&ta, &tb);
    println!("{diff}");
    println!("{}", view::side_by_side(&ta, &tb, 60));
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let (model, cluster) = model_and_cluster(args)?;
    let alg = match flag(args, "algorithm")? {
        None | Some(Algorithm::None) => Algorithm::OneBit,
        Some(alg) => alg,
    };
    let byteps_cluster = if args.on("local") {
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

fn cmd_plan(args: &Args) -> Result<(), String> {
    let (model, cluster) = model_and_cluster(args)?;
    let strategy = flag(args, "strategy")?.unwrap_or(Strategy::CaSyncPs);
    let algorithm = flag(args, "algorithm")?.unwrap_or(Algorithm::OneBit);
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

fn cmd_lint(args: &Args) -> Result<(), String> {
    use hipress::casync::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
    use hipress::compll::algorithms as algs;

    // A single DSL file: dataflow-check it and stop.
    if let Some(path) = args.positional.first() {
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
    let strategies: Vec<Strategy> = match flag(args, "strategy")? {
        Some(s) => vec![s],
        None => Strategy::all().to_vec(),
    };
    let algorithms: Vec<Algorithm> = match flag(args, "algorithm")? {
        Some(a) => vec![a],
        None => ["none", "onebit", "tbq", "terngrad", "dgc", "graddrop"]
            .into_iter()
            .filter_map(Algorithm::paper_default)
            .collect(),
    };
    let node_counts: Vec<usize> = match flag(args, "nodes")? {
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
    let mut programs: Vec<(String, String)> = [
        ("onebit", algs::ONEBIT_DSL),
        ("tbq", algs::TBQ_DSL),
        ("dgc", algs::DGC_DSL),
        ("graddrop", algs::GRADDROP_DSL),
        ("adacomp", algs::ADACOMP_DSL),
    ]
    .map(|(name, dsl)| (name.to_string(), dsl.to_string()))
    .to_vec();
    for bits in [1, 2, 4, 8] {
        let dsl = algs::TERNGRAD_DSL_TEMPLATE.replace("{U}", &format!("uint{bits}"));
        programs.push((format!("terngrad:{bits}"), dsl));
    }
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

fn cmd_verify(args: &Args) -> Result<(), String> {
    use hipress::verify::{
        check_config, check_elastic, elastic_matrix, matrix, ElasticMutation, Mutation, Outcome,
        Stats,
    };

    // `--mutant` names one defect from either family: the wire/FT
    // alphabet is seeded into the wire matrix, the elastic alphabet
    // into the epoch-transition matrix; the other matrix runs clean.
    let seeded = args.value("mutant");
    let mutation = seeded.and_then(Mutation::from_name);
    let elastic_mutation = seeded.and_then(ElasticMutation::from_name);
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

fn cmd_compile(args: &Args) -> Result<(), String> {
    let path = &args.positional[0];
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

    fn parse(name: &str, line: &str) -> Result<Args, String> {
        let cmd = COMMANDS.iter().find(|c| c.name == name);
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_flags(cmd.expect("a table command"), &args)
    }

    #[test]
    fn positionals_are_seen_wherever_they_stand() {
        for line in ["--json FILE", "FILE --json"] {
            let args = parse("report", line).unwrap();
            assert_eq!(args.positional, ["FILE"], "{line}");
            assert!(args.on("json"), "{line}");
        }
        let args = parse("scrape", "--lines 3 ADDR /events").unwrap();
        assert_eq!(args.positional, ["ADDR", "/events"]);
        assert_eq!(args.value("lines"), Some("3"));
    }

    #[test]
    fn a_value_flag_without_its_value_is_named() {
        for line in ["--model VGG19 --nodes", "--nodes --local"] {
            let err = parse("sim", line).err();
            assert_eq!(err.as_deref(), Some("--nodes needs a value"), "{line}");
        }
        // `--baseline` is a toggle for `sim` but a path for `bench`.
        let args = parse("sim", "--model VGG19 --baseline").unwrap();
        assert!(args.on("baseline"));
        let err = parse("bench", "--baseline").err();
        assert_eq!(err.as_deref(), Some("--baseline needs a value"));
    }

    #[test]
    fn bad_codec_and_strategy_values_are_errors_not_panics() {
        let args = parse("run", "--algorithm dgc:2 --strategy mesh --nodes x").unwrap();
        let err = flag::<Algorithm>(&args, "algorithm").unwrap_err();
        assert!(err.contains("dgc rate must be in (0, 1]"), "{err}");
        assert!(flag::<Strategy>(&args, "strategy").is_err());
        assert!(flag::<usize>(&args, "nodes").is_err());
        assert_eq!(flag::<u64>(&args, "seed"), Ok(None));
    }

    /// Every command rejects a flag it does not declare, and `usage`
    /// lists exactly the declared flags, once each, under each command.
    #[test]
    fn the_table_is_the_only_flag_declaration() {
        let help = usage();
        let sections: Vec<&str> = help.split("\n\n").skip(2).collect();
        assert_eq!(sections.len(), COMMANDS.len());
        for (cmd, section) in COMMANDS.iter().zip(sections) {
            let err = parse_flags(cmd, &["--no-such-flag".into()]).err();
            let want = format!("unknown flag --no-such-flag for '{}'", cmd.name);
            assert_eq!(err, Some(want));
            let head = format!("  hipress {}", cmd.name);
            assert!(section.starts_with(&head), "{section}");
            let listed = section.lines().filter_map(|l| l.strip_prefix("        --"));
            let listed: Vec<&str> = listed.filter_map(|l| l.split(' ').next()).collect();
            let declared: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
            assert_eq!(listed, declared, "{}", cmd.name);
        }
    }
}
