//! Concurrent snapshot-under-write stress: N writer threads hammer a
//! [`Registry`] while a reader snapshots and serializes in a loop.
//! Every snapshot must be *internally consistent* — this is the
//! contract the live `/metrics` scrape endpoint depends on, since it
//! renders snapshots taken mid-run with no barrier against recording.
//!
//! Checked invariants, per snapshot and across consecutive snapshots:
//!
//! * histogram `count == Σ bucket counts` (structural, because the
//!   count is derived from the buckets — but the *derivation* only
//!   holds up if bucket publication is ordered correctly);
//! * histogram totals are monotone: a later snapshot never shows fewer
//!   observations or a smaller sum than an earlier one;
//! * a counted observation's extremes are visible: `min ≤ max`, and
//!   every bucket with a count intersects `[min, max]`;
//! * counters are monotone;
//! * the snapshot serializes and re-parses losslessly while writers
//!   are still running.
//!
//! The writers start only after the reader's first snapshot, so the
//! reader takes at least one snapshot before the writes and one after.

use hipress_metrics::{MetricValue, MetricsSnapshot, Registry};
use hipress_trace::hist::bucket_bounds;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WRITERS: usize = 4;
const OBS_PER_WRITER: u64 = 10_000;

#[test]
fn snapshots_stay_internally_consistent_under_write_load() {
    let reg = Registry::new();
    let stop = Arc::new(AtomicBool::new(false));
    let start = &Barrier::new(WRITERS + 1);

    std::thread::scope(|s| {
        let mut writers = Vec::new();
        for node in 0..WRITERS {
            let scope = reg.scope(&[("node", &node.to_string())]);
            writers.push(s.spawn(move || {
                let c = scope.counter("events", &[]);
                let shared = scope.registry().root().counter("messages", &[]);
                let h = scope.histogram("lat_ns", &[]);
                let merged = scope.registry().root().histogram("merged_ns", &[]);
                start.wait();
                for i in 0..OBS_PER_WRITER {
                    // Values spread over many log buckets, bounded so
                    // the [min, max] envelope is known.
                    let v = i
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(node as u64)
                        % 1_000_000;
                    c.inc();
                    shared.inc();
                    h.record(v);
                    merged.record(v);
                }
            }));
        }

        let stop_r = Arc::clone(&stop);
        let reader = s.spawn(move || {
            let mut snaps = 0u64;
            let mut prev: Option<MetricsSnapshot> = None;
            loop {
                let done = stop_r.load(Ordering::Acquire);
                let snap = reg.snapshot();
                snaps += 1;
                if snaps == 1 {
                    // Release the writers before checking, so a failed
                    // check on this snapshot fails the test, not hangs it.
                    start.wait();
                }

                // Serialization round-trips mid-run.
                let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parse own json");
                assert_eq!(back.len(), snap.len());

                for (key, value) in snap.iter() {
                    match value {
                        MetricValue::Counter(c) => {
                            if let Some(p) = prev.as_ref().and_then(|p| p.get(key)) {
                                if let MetricValue::Counter(pc) = p {
                                    assert!(c >= pc, "counter {key} went backwards: {pc} -> {c}");
                                }
                            }
                        }
                        MetricValue::Histogram(h) => {
                            let bucket_sum: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                            assert_eq!(
                                h.count, bucket_sum,
                                "histogram {key}: count {} != bucket sum {}",
                                h.count, bucket_sum
                            );
                            if h.count > 0 {
                                assert!(h.min <= h.max, "{key}: min {} > max {}", h.min, h.max);
                                for &(b, _) in &h.buckets {
                                    let (lo, hi) = bucket_bounds(b);
                                    assert!(
                                        hi > h.min && lo <= h.max,
                                        "{key}: occupied bucket [{lo},{hi}) outside [{}, {}]",
                                        h.min,
                                        h.max
                                    );
                                }
                            }
                            if let Some(MetricValue::Histogram(ph)) =
                                prev.as_ref().and_then(|p| p.get(key))
                            {
                                assert!(
                                    h.count >= ph.count,
                                    "{key}: count went backwards: {} -> {}",
                                    ph.count,
                                    h.count
                                );
                                assert!(
                                    h.sum >= ph.sum,
                                    "{key}: sum went backwards: {} -> {}",
                                    ph.sum,
                                    h.sum
                                );
                            }
                        }
                        _ => {}
                    }
                }
                prev = Some(snap);
                if done {
                    break;
                }
            }
            (snaps, prev.expect("at least one snapshot"))
        });

        // Join the writers, then release the reader for one final
        // post-quiescence snapshot.
        for w in writers {
            w.join().expect("writer");
        }
        let total = (WRITERS as u64) * OBS_PER_WRITER;
        stop.store(true, Ordering::Release);
        let (snaps, last) = reader.join().expect("reader");
        assert!(snaps >= 2, "reader must have raced the writers");

        // Final snapshot is exact.
        assert_eq!(last.total_counter("events"), total);
        assert_eq!(last.total_counter("messages"), total);
        let (count, _) = last.hist_totals("lat_ns");
        assert_eq!(count, total);
        let (mcount, _) = last.hist_totals("merged_ns");
        assert_eq!(mcount, total);
    });
}
