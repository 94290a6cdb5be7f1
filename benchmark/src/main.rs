//! The repo benchmark: six CaSync-RT workloads driven through the
//! user-facing facade, end-to-end metrics with every instrument off,
//! then a traced pass and layer probes for the per-layer numbers.
//!
//! ```text
//! hipress-benchmark [--workload NAME]... [--seed S] [--seconds T]
//!                   [--trace 0|1 | --no-trace] [--smoke] [--out FILE]
//! hipress-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how they are expected to interact.

#![forbid(unsafe_code)]

mod catalogue;
mod compare;
mod e2e;
mod layers;
mod probes;
mod stats;
mod workloads;

use hipress::trace::json::write_str;
use std::io::Write;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// One emitted metric; its unit is the catalogue's.
pub type Metric = (&'static str, f64);

/// What one pass over one workload produced.
pub struct Pass {
    /// `sync` calls that were to be measured.
    pub attempted: u64,
    /// Those that returned an error or a wrong output.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context for a human reader, printed as a `#` line.
    pub note: String,
}

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measuring time per pass when none is given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: traced pass
    /// and probes only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--no-trace" => o.trace = Some(false),
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    Ok(o)
}

/// The driver's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`. `head` is spliced in front for the result
/// file's extra keys.
fn result_json(head: &str, pass: &Pass) -> String {
    let mut out = format!(
        "{{{head}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        pass.failed == 0,
        pass.attempted,
        pass.failed
    );
    for (i, (name, value)) in pass.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, name);
        out.push_str(&format!(": {{\"value\": {value}, \"unit\": "));
        write_str(&mut out, catalogue::unit(name));
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn run(o: &Options) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = match &o.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path}: {e}"))?,
        ),
        None => None,
    };
    let mut clean = true;
    for w in &o.workloads {
        for traced in [false, true] {
            if o.trace.is_some_and(|only| only != traced) {
                continue;
            }
            println!(
                "# workload {} trace {} seed {} seconds {} cores {cores}{}",
                w.name,
                u8::from(traced),
                o.seed,
                o.seconds,
                if o.smoke { " smoke" } else { "" }
            );
            println!("# {}", w.why);
            // A smoke pass takes its minimum of everything and no time.
            let seconds = if o.smoke { 0.0 } else { o.seconds };
            let host0 = stats::host_ticks();
            let pass = if traced {
                layers::run(w, o.seed, seconds, o.smoke)?
            } else {
                e2e::run(w, o.seed, seconds, o.smoke)?
            };
            if let (Some((steal0, total0)), Some((steal, total))) = (host0, stats::host_ticks()) {
                let share = (steal - steal0) as f64 * 100.0 / (total - total0).max(1) as f64;
                println!("# hypervisor stole {share:.1} % of this pass's CPU time");
            }
            if let Some((name, value)) = pass.metrics.iter().find(|(_, v)| !v.is_finite()) {
                return Err(format!("{}: {name} is {value}", w.name));
            }
            println!("# {}", pass.note);
            for (name, value) in &pass.metrics {
                println!("{name} {value} {}", catalogue::unit(name));
            }
            if !traced {
                let ratio = pass.failed as f64 / pass.attempted as f64;
                println!("fail_ratio {ratio} ratio");
            }
            clean &= pass.failed == 0;
            if let Some(file) = &mut out {
                let head = format!(
                    "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
                    w.name,
                    o.seed,
                    u8::from(traced)
                );
                writeln!(file, "{}", result_json(&head, &pass))
                    .map_err(|e| format!("cannot write result file: {e}"))?;
            }
            println!("{}", result_json("", &pass));
        }
    }
    Ok(clean)
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::load(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, clean) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(clean)
}

/// `node --connect ADDR --rank R --nodes N`: this binary re-executed
/// by `Backend::Processes` as one rank of a job.
fn node(args: &[String]) -> Result<bool, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or(format!("node: {name} is required"))
    };
    let rank = flag("--rank")?.parse().map_err(|_| "node: bad --rank")?;
    let nodes = flag("--nodes")?.parse().map_err(|_| "node: bad --nodes")?;
    hipress::runtime::node_main(flag("--connect")?, rank, nodes).map_err(|e| e.to_string())?;
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("node") => node(&args[1..]),
        // A spawned worker that was not asked to be a node would run
        // the whole benchmark again inside every rank.
        _ if std::env::var_os("HIPRESS_SPAWNED_WORKER").is_some() => {
            Err("spawned worker invoked without the node subcommand".into())
        }
        Some("compare") => compare_files(&args[1..]),
        _ => parse_options(&args).and_then(|o| run(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hipress-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
