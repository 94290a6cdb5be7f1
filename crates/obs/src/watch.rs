//! SLO watchdog: EWMA + log-bucket baselines over the per-iteration
//! progress stream, with deterministic, latched alerting.
//!
//! The detector is a pure state machine: [`Watchdog::observe`] consumes
//! one [`IterRecord`] and returns the alerts (if any) that this record
//! caused to fire. All thresholds are this module's constants and all
//! state transitions are deterministic functions of the record stream,
//! so tests can feed a synthetic stream and assert the exact alert.
//!
//! Alert taxonomy (each latched once per rank — a bad rank alerts once,
//! not once per iteration):
//!
//! * [`AlertKind::IterationLatencyRegression`] — an iteration span
//!   exceeded `max(latency_factor * ewma, ewma + latency_margin_ns,
//!   latency_factor * p99)` for `consecutive` records in a row, after a
//!   `warmup`-record baseline was established. The EWMA (alpha 0.2,
//!   same integer form as the runtime's straggler detector) tracks the
//!   recent typical span; the p99 comes from a per-rank log-bucket
//!   [`LatencyHistogram`] of the same clean spans and keeps a skewed
//!   (long-tailed) baseline from alerting on its own tail. Both absorb
//!   only non-exceeding spans so a regression cannot drag its own
//!   baseline up.
//! * [`AlertKind::RetransmitStorm`] — a single iteration charged at
//!   least `retransmit_burst` fabric retransmissions.
//! * [`AlertKind::OverlapCollapse`] — with a pipeline window > 1, the
//!   ratio `span_ns / retirement_gap_ns` fell below `overlap_floor_pct`
//!   for `consecutive` records: the rank spends most of its wall time
//!   idle between retirements, i.e. the pipeline has stalled.
//! * [`AlertKind::StragglerRank`] — a rank's span EWMA exceeds
//!   `straggler_factor` times the median EWMA of the other warmed-up
//!   ranks (plus the absolute margin).
//! * [`AlertKind::HeartbeatGap`] — a rank's last sign of life is older
//!   than `heartbeat_gap_ns` ([`Watchdog::check_heartbeats`], driven by
//!   the serving layer's clock while the job is live).
//! * [`AlertKind::MembershipChange`] — an elastic run bumped its
//!   membership epoch (a rank was evicted or re-admitted). Raised by
//!   the hub's [`crate::Telemetry::bump_epoch`], not by this state
//!   machine: membership is coordinator truth, not something inferred
//!   from the record stream. Latched once per epoch bump.

use std::collections::BTreeMap;

use hipress_trace::LatencyHistogram;

use crate::progress::IterRecord;

/// The six anomaly classes the telemetry plane can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Iteration latency broke away from its own EWMA baseline.
    IterationLatencyRegression,
    /// A burst of fabric retransmissions in one iteration.
    RetransmitStorm,
    /// Pipelined run degenerated to (worse than) serial cadence.
    OverlapCollapse,
    /// One rank is persistently slower than its peers.
    StragglerRank,
    /// A rank went silent.
    HeartbeatGap,
    /// An elastic run changed membership (eviction or re-admission).
    MembershipChange,
}

impl AlertKind {
    /// Stable snake_case label value used in `alerts_total{kind=...}`
    /// and in the NDJSON/trace renderings.
    pub fn as_label(&self) -> &'static str {
        match self {
            AlertKind::IterationLatencyRegression => "iteration_latency_regression",
            AlertKind::RetransmitStorm => "retransmit_storm",
            AlertKind::OverlapCollapse => "overlap_collapse",
            AlertKind::StragglerRank => "straggler_rank",
            AlertKind::HeartbeatGap => "heartbeat_gap",
            AlertKind::MembershipChange => "membership_change",
        }
    }
}

impl std::fmt::Display for AlertKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_label())
    }
}

/// One fired alert: what, where, and the numbers that crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Anomaly class.
    pub kind: AlertKind,
    /// Rank the alert is about.
    pub node: u32,
    /// Iteration that tripped the detector (0 for heartbeat alerts).
    pub iter: u32,
    /// Telemetry-epoch timestamp of the offending observation.
    pub ts_ns: u64,
    /// The observed value that crossed the threshold.
    pub observed: u64,
    /// The threshold it crossed (same unit as `observed`).
    pub threshold: u64,
}

/// Records per rank absorbed into the baseline before any
/// latency/overlap/straggler alerting.
pub const WARMUP: u32 = 3;
/// Latency threshold multiplier over the span EWMA.
pub const LATENCY_FACTOR: u64 = 4;
/// Absolute slack added to the EWMA; keeps microsecond-scale
/// baselines from alerting on scheduler jitter.
pub const LATENCY_MARGIN_NS: u64 = 20_000_000;
/// Consecutive exceeding records required before latching the
/// latency or overlap alert.
pub const CONSECUTIVE: u32 = 2;
/// Per-iteration retransmission count that counts as a storm.
pub const RETRANSMIT_BURST: u64 = 64;
/// Straggler threshold multiplier over the peer-median EWMA.
pub const STRAGGLER_FACTOR: u64 = 4;
/// Floor for `100 * span / retirement_gap` below which a windowed
/// rank counts as stalled.
pub const OVERLAP_FLOOR_PCT: u64 = 40;
/// Maximum tolerated heartbeat age while the job is live.
pub const HEARTBEAT_GAP_NS: u64 = 5_000_000_000;

/// Integer EWMA with alpha 0.2 (matches the runtime's fault-tolerance
/// gap estimator): `ewma' = (4 * ewma + v) / 5`, seeded by the first
/// observation.
fn ewma(prev: u64, v: u64) -> u64 {
    if prev == 0 {
        v
    } else {
        (prev.saturating_mul(4).saturating_add(v)) / 5
    }
}

#[derive(Debug, Default)]
struct RankState {
    seen: u32,
    ewma_span: u64,
    baseline: LatencyHistogram,
    lat_streak: u32,
    lat_latched: bool,
    retr_latched: bool,
    last_ts: u64,
    ov_streak: u32,
    ov_latched: bool,
    strag_latched: bool,
    hb_latched: bool,
}

/// The SLO watchdog state machine. Feed it the iteration stream with
/// [`observe`](Watchdog::observe); poke it with a clock via
/// [`check_heartbeats`](Watchdog::check_heartbeats).
#[derive(Debug, Default)]
pub struct Watchdog {
    ranks: BTreeMap<u32, RankState>,
}

impl Watchdog {
    /// Fresh watchdog with no rank seen yet.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// Consume one progress record; return every alert it fired.
    pub fn observe(&mut self, rec: &IterRecord) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let st = self.ranks.entry(rec.node).or_default();
        st.seen += 1;

        // Iteration latency vs. the rank's own EWMA + log-bucket-p99
        // baseline.
        if st.seen <= WARMUP {
            st.ewma_span = ewma(st.ewma_span, rec.span_ns);
            st.baseline.record(rec.span_ns);
        } else {
            let threshold = (st.ewma_span.saturating_mul(LATENCY_FACTOR))
                .max(st.ewma_span.saturating_add(LATENCY_MARGIN_NS))
                .max(st.baseline.p99().saturating_mul(LATENCY_FACTOR));
            if rec.span_ns > threshold {
                st.lat_streak += 1;
                if st.lat_streak >= CONSECUTIVE && !st.lat_latched {
                    st.lat_latched = true;
                    alerts.push(Alert {
                        kind: AlertKind::IterationLatencyRegression,
                        node: rec.node,
                        iter: rec.iter,
                        ts_ns: rec.ts_ns,
                        observed: rec.span_ns,
                        threshold,
                    });
                }
            } else {
                st.lat_streak = 0;
                st.ewma_span = ewma(st.ewma_span, rec.span_ns);
                st.baseline.record(rec.span_ns);
            }
        }

        // Retransmit storm: a single bad iteration is enough.
        if rec.retransmits >= RETRANSMIT_BURST && !st.retr_latched {
            st.retr_latched = true;
            alerts.push(Alert {
                kind: AlertKind::RetransmitStorm,
                node: rec.node,
                iter: rec.iter,
                ts_ns: rec.ts_ns,
                observed: rec.retransmits,
                threshold: RETRANSMIT_BURST,
            });
        }

        // Overlap collapse: retirement cadence far slower than the
        // iterations' own spans means the pipe is sitting idle.
        if rec.window > 1 {
            if st.last_ts != 0 && rec.ts_ns > st.last_ts {
                let gap = (rec.ts_ns - st.last_ts).max(1);
                let ratio_pct = rec.span_ns.saturating_mul(100) / gap;
                if st.seen > WARMUP && ratio_pct < OVERLAP_FLOOR_PCT {
                    st.ov_streak += 1;
                    if st.ov_streak >= CONSECUTIVE && !st.ov_latched {
                        st.ov_latched = true;
                        alerts.push(Alert {
                            kind: AlertKind::OverlapCollapse,
                            node: rec.node,
                            iter: rec.iter,
                            ts_ns: rec.ts_ns,
                            observed: ratio_pct,
                            threshold: OVERLAP_FLOOR_PCT,
                        });
                    }
                } else {
                    st.ov_streak = 0;
                }
            }
            st.last_ts = rec.ts_ns;
        }

        // Straggler: compare this rank's EWMA against the median of its
        // warmed-up peers.
        let (seen, mine, latched) = {
            let st = &self.ranks[&rec.node];
            (st.seen, st.ewma_span, st.strag_latched)
        };
        if seen > WARMUP && !latched {
            let mut peers: Vec<u64> = self
                .ranks
                .iter()
                .filter(|(n, s)| **n != rec.node && s.seen > WARMUP)
                .map(|(_, s)| s.ewma_span)
                .collect();
            if !peers.is_empty() {
                peers.sort_unstable();
                let median = peers[peers.len() / 2];
                let threshold = median
                    .saturating_mul(STRAGGLER_FACTOR)
                    .max(median.saturating_add(LATENCY_MARGIN_NS));
                if mine > threshold {
                    let st = self.ranks.get_mut(&rec.node).expect("rank state");
                    st.strag_latched = true;
                    alerts.push(Alert {
                        kind: AlertKind::StragglerRank,
                        node: rec.node,
                        iter: rec.iter,
                        ts_ns: rec.ts_ns,
                        observed: mine,
                        threshold,
                    });
                }
            }
        }

        alerts
    }

    /// Check per-rank heartbeat ages against [`HEARTBEAT_GAP_NS`]. `beats`
    /// maps rank to the telemetry-epoch timestamp of its last sign of
    /// life; `now_ns` is the current telemetry-epoch time. Pure in its
    /// inputs so tests can drive the clock by hand.
    pub fn check_heartbeats(&mut self, now_ns: u64, beats: &[(u32, u64)]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for &(rank, last) in beats {
            let gap = now_ns.saturating_sub(last);
            let st = self.ranks.entry(rank).or_default();
            if gap > HEARTBEAT_GAP_NS && !st.hb_latched {
                st.hb_latched = true;
                alerts.push(Alert {
                    kind: AlertKind::HeartbeatGap,
                    node: rank,
                    iter: 0,
                    ts_ns: now_ns,
                    observed: gap,
                    threshold: HEARTBEAT_GAP_NS,
                });
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, iter: u32, ts_ns: u64, span_ns: u64) -> IterRecord {
        IterRecord {
            node,
            iter,
            ts_ns,
            span_ns,
            window: 1,
            ..IterRecord::default()
        }
    }

    fn drain(w: &mut Watchdog, recs: &[IterRecord]) -> Vec<Alert> {
        recs.iter().flat_map(|r| w.observe(r)).collect()
    }

    #[test]
    fn steady_stream_raises_nothing() {
        let mut w = Watchdog::new();
        let recs: Vec<_> = (0..50)
            .map(|i| rec(0, i, u64::from(i) * 1_000_000, 900_000 + u64::from(i % 7)))
            .collect();
        assert!(drain(&mut w, &recs).is_empty());
    }

    #[test]
    fn latency_regression_fires_exactly_once_after_two_consecutive_breaches() {
        let mut w = Watchdog::new();
        // Baseline: 5 fast iterations at ~1ms.
        for i in 0..5 {
            assert!(w
                .observe(&rec(0, i, u64::from(i) * 1_000_000, 1_000_000))
                .is_empty());
        }
        // One slow iteration: streak 1, no alert yet.
        assert!(w.observe(&rec(0, 5, 5_000_000, 60_000_000)).is_empty());
        // Second consecutive slow iteration: threshold is
        // max(4 * 1ms, 1ms + 20ms) = 21ms, breached -> exactly one alert.
        let alerts = w.observe(&rec(0, 6, 65_000_000, 60_000_000));
        assert_eq!(alerts.len(), 1);
        let a = alerts[0];
        assert_eq!(a.kind, AlertKind::IterationLatencyRegression);
        assert_eq!(a.node, 0);
        assert_eq!(a.iter, 6);
        assert_eq!(a.observed, 60_000_000);
        assert_eq!(a.threshold, 21_000_000);
        // Latched: further breaches stay silent.
        assert!(w.observe(&rec(0, 7, 130_000_000, 60_000_000)).is_empty());
    }

    #[test]
    fn single_breach_between_normal_records_does_not_alert() {
        let mut w = Watchdog::new();
        for i in 0..5 {
            w.observe(&rec(0, i, u64::from(i) * 1_000_000, 1_000_000));
        }
        assert!(w.observe(&rec(0, 5, 5_000_000, 60_000_000)).is_empty());
        // Back to normal: streak resets.
        assert!(w.observe(&rec(0, 6, 66_000_000, 1_000_000)).is_empty());
        assert!(w.observe(&rec(0, 7, 67_000_000, 60_000_000)).is_empty());
    }

    #[test]
    fn regression_does_not_poison_its_own_baseline() {
        let mut w = Watchdog::new();
        for i in 0..5 {
            w.observe(&rec(0, i, u64::from(i) * 1_000_000, 1_000_000));
        }
        // Alert fires on the 2nd breach...
        w.observe(&rec(0, 5, 5_000_000, 60_000_000));
        let alerts = w.observe(&rec(0, 6, 65_000_000, 60_000_000));
        assert_eq!(alerts.len(), 1);
        // ...and the threshold was computed from the *clean* 1ms EWMA,
        // not one dragged up by the slow records.
        assert_eq!(alerts[0].threshold, 21_000_000);
    }

    #[test]
    fn retransmit_storm_latches_on_one_bad_iteration() {
        let mut w = Watchdog::new();
        let mut r = rec(2, 0, 0, 1_000_000);
        r.retransmits = 64;
        let alerts = w.observe(&r);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::RetransmitStorm);
        assert_eq!(alerts[0].node, 2);
        // Latched per rank.
        let mut r2 = rec(2, 1, 1, 1_000_000);
        r2.retransmits = 500;
        assert!(w.observe(&r2).is_empty());
    }

    #[test]
    fn overlap_collapse_fires_when_pipe_goes_idle() {
        let mut w = Watchdog::new();
        // Healthy window-4 pipeline: spans of 10ms retiring every 2.5ms
        // (ratio 400%).
        let mut ts = 0;
        for i in 0..6 {
            ts += 2_500_000;
            let mut r = rec(0, i, ts, 10_000_000);
            r.window = 4;
            assert!(w.observe(&r).is_empty());
        }
        // Stall: 1ms spans retiring every 50ms (ratio 2%) — alert on the
        // second consecutive stalled record.
        ts += 50_000_000;
        let mut r = rec(0, 6, ts, 1_000_000);
        r.window = 4;
        assert!(w.observe(&r).is_empty());
        ts += 50_000_000;
        let mut r = rec(0, 7, ts, 1_000_000);
        r.window = 4;
        let alerts = w.observe(&r);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::OverlapCollapse);
        assert_eq!(alerts[0].observed, 2);
        assert_eq!(alerts[0].threshold, 40);
    }

    #[test]
    fn straggler_rank_is_flagged_against_peer_median() {
        let mut w = Watchdog::new();
        // Three healthy ranks at 1ms, one rank at 100ms.
        for i in 0..8 {
            for n in 0..3 {
                w.observe(&rec(
                    n,
                    i,
                    u64::from(i) * 1_000_000 + u64::from(n),
                    1_000_000,
                ));
            }
        }
        let mut fired = Vec::new();
        for i in 0..8 {
            fired.extend(w.observe(&rec(3, i, u64::from(i) * 100_000_000, 100_000_000)));
        }
        let stragglers: Vec<_> = fired
            .iter()
            .filter(|a| a.kind == AlertKind::StragglerRank)
            .collect();
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].node, 3);
        // Healthy peers never get flagged.
        assert!(fired.iter().all(|a| a.node == 3));
    }

    #[test]
    fn heartbeat_gap_alerts_once_per_silent_rank() {
        let mut w = Watchdog::new();
        let beats = [(0u32, 1_000_000_000u64), (1, 7_000_000_000)];
        // At t=7s rank 0 is 6s silent (gap > 5s), rank 1 is fresh.
        let alerts = w.check_heartbeats(7_000_000_000, &beats);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::HeartbeatGap);
        assert_eq!(alerts[0].node, 0);
        assert_eq!(alerts[0].observed, 6_000_000_000);
        // Latched.
        assert!(w.check_heartbeats(9_000_000_000, &beats).is_empty());
        // Rank 1 eventually goes silent too.
        let later = w.check_heartbeats(13_000_000_000, &beats);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].node, 1);
    }
}
