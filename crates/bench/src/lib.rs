//! Shared helpers for the table/figure reproduction benches.
//!
//! Every bench target regenerates one artifact of the paper's
//! evaluation and prints measured values next to the paper's, so a
//! reader can check the *shape* (who wins, by what factor, where the
//! crossovers fall) at a glance. Absolute values are not expected to
//! match: the substrate here is a calibrated simulator, not the
//! authors' EC2 testbed (see EXPERIMENTS.md).
//!
//! Besides printing, each target records its rows into a [`Recorder`]
//! so the same numbers exist machine-readably: when
//! `HIPRESS_BENCH_DIR` is set, finishing a recorder writes a
//! schema-versioned `BENCH_<id>.json` snapshot (the format of
//! `hipress bench`, consumable by `hipress report` and the
//! `--baseline` perf gate).

#![forbid(unsafe_code)]

use hipress::metrics::{MetricsSnapshot, Registry};
use std::path::{Path, PathBuf};

/// Prints a bench banner.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
}

/// Formats a measured-vs-paper pair.
pub fn vs(measured: f64, paper: f64, unit: &str) -> String {
    format!("{measured:.2}{unit} (paper: {paper:.2}{unit})")
}

/// Relative change in percent.
pub fn pct(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// Renders one fixed-width row (right-aligned cells, single-space
/// separators) with no trailing whitespace.
pub fn row_line(cells: &[String], widths: &[usize]) -> String {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(&format!("{c:>w$}", w = w));
    }
    while line.ends_with(' ') {
        line.pop();
    }
    line
}

/// A tiny fixed-width row printer.
pub fn row(cells: &[String], widths: &[usize]) {
    println!("{}", row_line(cells, widths));
}

/// User+system CPU time this process has consumed so far, in clock
/// ticks, from `/proc/self/stat`. Includes reaped threads, so a delta
/// around a run captures every thread the run started.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The comm field may contain spaces; fields resume after ')'.
    // utime and stime are overall fields 14 and 15 (1-based), i.e.
    // 11 and 12 after the parenthesized comm.
    let rest = stat.rsplit(')').next().expect("stat format");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

/// The upper median of `v` (the middle element after sorting).
pub fn median(mut v: Vec<i64>) -> i64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Collects one bench target's measured-vs-paper values into a
/// metrics registry and emits them as a `BENCH_<id>.json` snapshot.
///
/// Measured values are gauges labelled `source="measured"`; when the
/// paper tabulates an exact value for the same point it rides along
/// under `source="paper"`. Writing is opt-in: [`Recorder::finish`]
/// only touches the filesystem when `HIPRESS_BENCH_DIR` names a
/// directory, so plain `cargo bench` output stays print-only.
pub struct Recorder {
    id: String,
    registry: Registry,
}

impl Recorder {
    /// Starts a recorder for the bench target `id` (e.g. `"fig7"`).
    pub fn new(id: &str) -> Recorder {
        Recorder {
            id: id.to_string(),
            registry: Registry::new(),
        }
    }

    /// Records one measured value under `name` + `labels`, and the
    /// paper's value for the same point when it has one.
    pub fn record(&self, name: &str, labels: &[(&str, &str)], measured: f64, paper: Option<f64>) {
        let scope = self.registry.root();
        let mut l: Vec<(&str, &str)> = labels.to_vec();
        l.push(("source", "measured"));
        scope.gauge(name, &l).set(measured);
        if let Some(p) = paper {
            l.pop();
            l.push(("source", "paper"));
            scope.gauge(name, &l).set(p);
        }
    }

    /// The values recorded so far as a snapshot (meta: `kind=bench`,
    /// `bench=<id>`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry
            .snapshot()
            .with_meta("kind", "bench")
            .with_meta("bench", &self.id)
    }

    /// Writes `BENCH_<id>.json` into `$HIPRESS_BENCH_DIR` (resolved by
    /// [`bench_path`]) and returns the path; `None` when the variable
    /// is unset. When it is set and the write fails, the process exits
    /// non-zero naming the path: a ledger run that wrote nothing must
    /// not pass.
    pub fn finish(&self) -> Option<PathBuf> {
        let dir = std::env::var_os("HIPRESS_BENCH_DIR")?;
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the bench crate sits two levels below the workspace root");
        let path = bench_path(Path::new(&dir), root, &self.id);
        if let Err(e) = std::fs::write(&path, self.snapshot().to_json()) {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
        Some(path)
    }
}

/// Where `BENCH_<id>.json` goes for `HIPRESS_BENCH_DIR=dir`: `dir`
/// itself when absolute, else `dir` under the workspace `root`. Cargo
/// runs a bench in its crate's directory, where a relative directory
/// would name nothing the caller meant.
pub fn bench_path(dir: &Path, root: &Path, id: &str) -> PathBuf {
    root.join(dir).join(format!("BENCH_{id}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dir_resolves_against_the_workspace_root() {
        let root = Path::new("/ws");
        assert_eq!(
            bench_path(Path::new("out"), root, "fig7"),
            Path::new("/ws/out/BENCH_fig7.json")
        );
        assert_eq!(
            bench_path(Path::new("/tmp/ledger"), root, "fig7"),
            Path::new("/tmp/ledger/BENCH_fig7.json")
        );
    }

    #[test]
    fn pct_math() {
        assert!((pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((pct(50.0, 100.0) + 50.0).abs() < 1e-9);
    }

    #[test]
    fn vs_formats() {
        assert_eq!(vs(0.5, 0.47, ""), "0.50 (paper: 0.47)");
    }

    #[test]
    fn row_line_has_no_trailing_whitespace() {
        // The last cell is narrower than its column: right-alignment
        // pads on the left, and nothing may pad on the right.
        let line = row_line(&["ab".into(), "7".into()], &[4, 6]);
        assert_eq!(line, "  ab      7");
        assert_eq!(line, line.trim_end(), "no trailing whitespace");
        // A final empty cell must not leave a column of spaces behind.
        let line = row_line(&["x".into(), String::new()], &[2, 8]);
        assert_eq!(line, " x");
    }

    #[test]
    fn recorder_snapshots_measured_and_paper() {
        use hipress::metrics::{Key, LabelSet};
        let rec = Recorder::new("unit");
        rec.record(
            "scaling_efficiency",
            &[("model", "VGG19")],
            0.81,
            Some(0.76),
        );
        rec.record("gpu_utilization", &[("model", "VGG19")], 0.93, None);
        let snap = rec.snapshot();
        assert_eq!(snap.meta.get("bench").map(String::as_str), Some("unit"));
        assert_eq!(snap.meta.get("kind").map(String::as_str), Some("bench"));
        let get = |name: &str, src: &str| {
            snap.get(&Key::new(
                name,
                LabelSet::new(&[("model", "VGG19"), ("source", src)]),
            ))
            .map(|v| v.scalar())
        };
        assert_eq!(get("scaling_efficiency", "measured"), Some(0.81));
        assert_eq!(get("scaling_efficiency", "paper"), Some(0.76));
        assert_eq!(get("gpu_utilization", "measured"), Some(0.93));
        assert_eq!(get("gpu_utilization", "paper"), None);
    }
}
