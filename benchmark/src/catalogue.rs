//! Every metric the benchmark emits: name, unit, direction and — for
//! the end-to-end metrics — the share of the parent's median by which
//! it may worsen before a change counts as a regression.
//!
//! This is the single source of units and bounds inside the harness;
//! `BENCHMARK.json` at the repo root declares the same set to the
//! driver, and a test holds the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Declared {
    Declared {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Declared {
    Declared {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, with each metric's bound.
///
/// `fail_ratio` is not here: the driver's contract wants metrics that
/// are never 0 and carries failures in the result's own `attempted` /
/// `failed` / `correct` keys, so the harness reports it there (and as
/// a printed line) and exits non-zero when it is above 0.
pub const END_TO_END: [(Declared, f64); 4] = [
    (lower("iter_ms_p50", "ms"), 0.25),
    (lower("cpu_ms_per_iter", "ms"), 0.25),
    (lower("wire_bytes_per_iter", "B"), 0.0),
    (lower("setup_s", "s"), 0.25),
];

/// Single-layer metrics, traced pass first, then probes; no bounds.
/// The layer prefix is the module the number belongs to.
pub const PER_LAYER: [Declared; 28] = [
    lower("codec.encode_share", "ratio"),
    lower("codec.decode_share", "ratio"),
    lower("codec.merge_share", "ratio"),
    lower("fabric.send_share", "ratio"),
    lower("fabric.recv_share", "ratio"),
    lower("sched.source_share", "ratio"),
    lower("sched.update_share", "ratio"),
    lower("sched.idle_share", "ratio"),
    lower("sched.tasks_per_iter", "count"),
    lower("sched.batch_launches_per_iter", "count"),
    higher("sched.overlap_pct", "%"),
    lower("fabric.msgs_per_iter", "count"),
    lower("fabric.framed_bytes_per_iter", "B"),
    lower("fabric.frame_overhead_pct", "%"),
    lower("fabric.retransmits_per_iter", "count"),
    lower("trace.overhead_pct", "%"),
    higher("codec.encode_gbps", "GB/s"),
    higher("codec.decode_gbps", "GB/s"),
    higher("wire.encode_gbps", "GB/s"),
    higher("wire.decode_gbps", "GB/s"),
    higher("frame.encode_gbps", "GB/s"),
    higher("frame.decode_gbps", "GB/s"),
    lower("rel.frame_cycle_ns", "ns"),
    lower("fabric.rtt_us", "us"),
    higher("fabric.oneway_gbps", "GB/s"),
    lower("sched.task_us", "us"),
    lower("core.graph_build_ms", "ms"),
    lower("process.launch_ms", "ms"),
];

/// The unit a metric was declared with.
///
/// # Panics
///
/// On a name the catalogue does not declare — a harness bug, caught
/// by the catalogue test.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, WORKLOADS};
    use crate::{e2e, layers};
    use hipress::trace::json::{parse, Json};

    fn direction(better: Better) -> String {
        match better {
            Better::Lower => "lower".to_string(),
            Better::Higher => "higher".to_string(),
        }
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    /// The names, units, directions and bounds declared to the driver
    /// are the catalogue's, in the catalogue's order; the workloads
    /// too; and a real (smoke) run emits exactly the catalogue.
    #[test]
    fn benchmark_json_catalogue_and_emitted_names_agree() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|(d, bound)| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    direction(d.better),
                    Some(*bound),
                )
            })
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), ours);

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    direction(d.better),
                    None,
                )
            })
            .collect();
        assert_eq!(declared(&doc, "per_layer"), ours);

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);

        // Every workload takes the same code path to its metric list,
        // so one thread-backed smoke run stands for all six (a test
        // binary cannot serve as a `node` worker for the process ones).
        let w = find("tiny_onebit_thr").unwrap();
        let emitted = |pass: crate::Pass| -> Vec<&str> {
            assert_eq!(pass.failed, 0);
            pass.metrics.iter().map(|(name, _)| *name).collect()
        };
        let expect: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
        assert_eq!(emitted(e2e::run(w, 1, 0.0, true).unwrap()), expect);
        let expect: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(emitted(layers::run(w, 1, 0.0, true).unwrap()), expect);
    }
}
