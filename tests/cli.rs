//! The `hipress` binary's command line, end to end: a flag a command
//! does not declare, a missing required flag or positional, and a bad
//! flag value each exit non-zero naming it; and the commands read only
//! the flags their table entry declares (the debug build asserts each
//! name a command reads).

use std::process::{Command, Output};

fn hipress(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hipress"))
        .args(line.split_whitespace())
        .output()
        .expect("the hipress binary starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_bad_command_line_fails_naming_what_is_wrong() {
    for (line, error) in [
        // Each of these four used to run, ignoring the misspelt flag.
        (
            "sim --model VGG19 --node 4",
            "unknown flag --node for 'sim'",
        ),
        ("run --iter 3", "unknown flag --iter for 'run'"),
        (
            "verify --mutnat skip-dedup",
            "unknown flag --mutnat for 'verify'",
        ),
        ("report --jsn x", "unknown flag --jsn for 'report'"),
        ("sim --nodes 4", "--model is required for 'sim'"),
        ("node --rank 1 --join", "--connect is required for 'node'"),
        ("trace-diff a.json", "'trace-diff' needs <a.json> <b.json>"),
        (
            "sim --model GPT-5",
            "unknown model 'GPT-5' (try `hipress models`)",
        ),
        ("chaos --single --policy skip", "unknown policy 'skip'"),
    ] {
        let out = hipress(line);
        assert!(!out.status.success(), "{line} succeeded");
        assert!(stderr(&out).contains(error), "{line}: {}", stderr(&out));
    }
}

#[test]
fn commands_read_only_the_flags_they_declare() {
    let dir = std::env::temp_dir().join(format!("hipress-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let (snap, trace) = (dir.join("snap.json"), dir.join("sim.json"));
    let sim = hipress("sim --model ResNet50 --nodes 2 --json");
    assert!(sim.status.success(), "{}", stderr(&sim));
    std::fs::write(&snap, &sim.stdout).expect("the snapshot is written");
    let (snap, trace) = (snap.display(), trace.display());
    for line in [
        "models".to_string(),
        format!("sim --model ResNet50 --nodes 2 --trace {trace}"),
        "sim --model ResNet50 --nodes 2 --strategy byteps --local --baseline --no-selective".into(),
        "compare --model ResNet50 --nodes 2 --local --algorithm none".into(),
        "plan --model ResNet50 --nodes 2 --local --strategy casync-ring --algorithm tbq".into(),
        "run --nodes 2 --elems 256,32 --iters 2 --window 2 --seed 3 --partitions 1 --json".into(),
        "run --nodes 2 --elems 256 --backend sim".into(),
        "run --elastic --backend threads --nodes 3 --elems 64 --iters 3 --kill-rank 1 \
         --kill-iter 1 --cross-check"
            .into(),
        "chaos --nodes 2 --elems 256 --plan recoverable --seeds 1".into(),
        "chaos --nodes 2 --elems 256 --single --plan drop-storm --victim 1 --deadline-ms 4000"
            .into(),
        "lint --strategy casync-ps --algorithm onebit --nodes 2".into(),
        "verify".into(),
        format!("report {snap}"),
        format!("report {snap} --prom"),
        format!("bench --snapshot {snap} --baseline {snap} --tolerance 0"),
        format!("trace-diff {trace} {trace}"),
        "help".into(),
    ] {
        let out = hipress(&line);
        assert!(out.status.success(), "{line}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).expect("the scratch directory is removed");
}

/// A hostile JSON file is a structured error, not a stack overflow:
/// 50,000 nested arrays once aborted `report` and `trace-diff`.
#[test]
fn deeply_nested_json_is_an_error_not_a_crash() {
    let path = std::env::temp_dir().join(format!("hipress-deep-{}.json", std::process::id()));
    let depth = 50_000;
    std::fs::write(&path, format!("{}{}", "[".repeat(depth), "]".repeat(depth)))
        .expect("the file is written");
    let file = path.display();
    for line in [
        format!("report {file}"),
        format!("trace-diff {file} {file}"),
    ] {
        let out = hipress(&line);
        assert_eq!(out.status.code(), Some(1), "{line}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("nesting deeper than 128 at byte 128"),
            "{line}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_file(&path).expect("the file is removed");
}

/// The perf gate fails on a metric the snapshot no longer emits,
/// naming it, instead of passing on the metrics both sides share.
#[test]
fn the_perf_gate_fails_on_a_dropped_metric() {
    use hipress::metrics::MetricsSnapshot;
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/BENCH_sim.json");
    let full = MetricsSnapshot::from_json(&std::fs::read_to_string(baseline).expect("baseline"))
        .expect("the baseline parses");
    let mut dropped = MetricsSnapshot::new();
    dropped.meta = full.meta.clone();
    for (key, value) in full.iter().skip(1) {
        dropped.insert(key.clone(), value.clone());
    }
    let gone = full.keys().next().expect("a metric").to_string();
    let path = std::env::temp_dir().join(format!("hipress-dropped-{}.json", std::process::id()));
    std::fs::write(&path, dropped.to_json()).expect("the snapshot is written");
    let out = hipress(&format!(
        "bench --snapshot {} --baseline {baseline} --tolerance 0",
        path.display()
    ));
    std::fs::remove_file(&path).expect("the snapshot is removed");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("MISSING {gone}")), "{stdout}");
}
