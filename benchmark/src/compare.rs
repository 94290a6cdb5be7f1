//! `compare A B`: two result files side by side, one row per
//! (workload, end-to-end metric), judged by the benchmark's own bounds.
//!
//! A result file is what `--out` appends: one JSON object per line,
//! the driver's result object plus `workload`, `seed` and `trace`.
//! Several runs of a workload (other seeds, or the same again) give
//! the medians and quartiles; `compare A A'` of two sets from one
//! commit is the A/A check.

use crate::catalogue::{Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use hipress::trace::json::{parse, Json};
use hipress::util::table::{Align, Table};
use std::collections::BTreeMap;

/// (workload, metric) → one value per end-to-end run in the file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads the end-to-end records (`trace` 0) of one result file.
pub fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            runs.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own quartiles are further apart than the bound: the data
    /// cannot show a change of that size either way.
    Unresolved,
}

/// Judges B against A: how much worse B's median is as a share of
/// A's (negative = better), A's spread, and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match (ma == 0.0, better) {
        (true, _) => 0.0,
        (false, Better::Lower) => (mb - ma) / ma,
        (false, Better::Higher) => (ma - mb) / ma,
    };
    let spread = iqr_share(a);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Renders the comparison table; `Ok(true)` when no row is `worse`.
pub fn compare(a: &Runs, b: &Runs) -> Result<(String, bool), String> {
    let mut table = Table::new(&[
        ("workload", Align::Left),
        ("metric", Align::Left),
        ("A median", Align::Right),
        ("n", Align::Right),
        ("B median", Align::Right),
        ("n", Align::Right),
        ("worse by", Align::Right),
        ("A spread", Align::Right),
        ("bound", Align::Right),
        ("verdict", Align::Left),
    ]);
    let mut clean = true;
    for w in &WORKLOADS {
        for (d, bound) in &END_TO_END {
            let key = (w.name.to_string(), d.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                if a.contains_key(&key) != b.contains_key(&key) {
                    return Err(format!("{} {} is in only one of the files", w.name, d.name));
                }
                continue;
            };
            let (worse_by, spread, verdict) = judge(va, vb, d.better, *bound);
            clean &= verdict != Verdict::Worse;
            table.row(vec![
                w.name.to_string(),
                format!("{} [{}]", d.name, d.unit),
                format!("{:.4}", median(va)),
                va.len().to_string(),
                format!("{:.4}", median(vb)),
                vb.len().to_string(),
                format!("{:+.2}%", worse_by * 100.0),
                format!("{:.2}%", spread * 100.0),
                format!("{:.0}%", bound * 100.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
                .to_string(),
            ]);
        }
    }
    if table.is_empty() {
        return Err("the files share no end-to-end record".to_string());
    }
    Ok((table.render(), clean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.0];
        // 5 % slower under a 10 % bound: ok. 20 % slower: worse.
        assert_eq!(judge(&steady, &[105.0], Better::Lower, 0.10).2, Verdict::Ok);
        assert_eq!(
            judge(&steady, &[120.0], Better::Lower, 0.10).2,
            Verdict::Worse
        );
        // Faster is never worse; for a higher-is-better metric the
        // sign flips.
        assert_eq!(judge(&steady, &[50.0], Better::Lower, 0.10).2, Verdict::Ok);
        assert_eq!(
            judge(&steady, &[50.0], Better::Higher, 0.10).2,
            Verdict::Worse
        );
        // A's quartiles 40 % apart cannot resolve a 10 % bound.
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(
            judge(&noisy, &[100.0], Better::Lower, 0.10).2,
            Verdict::Unresolved
        );
        // An exact count under bound 0: equal is ok, one more is worse.
        let exact = [4096.0, 4096.0];
        assert_eq!(judge(&exact, &[4096.0], Better::Lower, 0.0).2, Verdict::Ok);
        assert_eq!(
            judge(&exact, &[4097.0], Better::Lower, 0.0).2,
            Verdict::Worse
        );
    }

    #[test]
    fn load_keeps_end_to_end_records_only() {
        let text = concat!(
            r#"{"workload":"dense_ps_thr","seed":1,"trace":0,"correct":true,"attempted":2,"failed":0,"metrics":{"iter_ms_p50":{"value":4.5,"unit":"ms"}}}"#,
            "\n\n",
            r#"{"workload":"dense_ps_thr","seed":1,"trace":1,"correct":true,"attempted":2,"failed":0,"metrics":{"sched.idle_share":{"value":0.3,"unit":"ratio"}}}"#,
            "\n",
            r#"{"workload":"dense_ps_thr","seed":2,"trace":0,"correct":true,"attempted":2,"failed":0,"metrics":{"iter_ms_p50":{"value":5.5,"unit":"ms"}}}"#,
            "\n",
        );
        let runs = load(text).unwrap();
        assert_eq!(runs.len(), 1);
        let key = ("dense_ps_thr".to_string(), "iter_ms_p50".to_string());
        assert_eq!(runs[&key], vec![4.5, 5.5]);
        let (table, clean) = compare(&runs, &runs).unwrap();
        assert!(clean);
        assert!(table.contains("iter_ms_p50"), "{table}");
        assert!(load("{not json").is_err());
    }
}
