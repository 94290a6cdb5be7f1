//! Live telemetry plane for HiPress.
//!
//! Everything before this crate observes a run *after the fact*: traces
//! are exported when the job exits, metrics snapshots are printed at
//! the end, postmortems read crash dumps. The paper's premise — that
//! gradient compression only pays in the right network/model regime —
//! makes *live* observation a first-class need: an operator (or an
//! adaptation layer) must see stragglers, retransmit storms, and
//! vanishing pipeline overlap while the job is still running. This
//! crate is that plane, `std`-only like the rest of the workspace:
//!
//! * [`progress`] — per-iteration [`IterRecord`]s and the wait-free
//!   bounded [`ProgressRing`] the runtime publishes them through.
//! * [`watch`] — the deterministic SLO [`Watchdog`]: EWMA +
//!   log-bucket-percentile baselines over the iteration stream,
//!   emitting latched [`Alert`]s per rank.
//! * [`serve`] — the embedded HTTP/1.1 [`Server`] (`/metrics`,
//!   `/healthz`, `/report.json`, `/events`).
//! * [`Telemetry`] — the hub tying them together: one shared clock,
//!   the ring, the heartbeat table, the watchdog, and the live metrics
//!   [`Registry`] that `alerts_total{kind}` is counted into.
//!
//! The runtime holds an `Option<&Telemetry>` in its `Instruments`
//! bundle and pays one ring publish per *retired iteration* — never
//! per task — when it is attached, and nothing when it is not.

#![forbid(unsafe_code)]

pub mod progress;
pub mod serve;
pub mod watch;

pub use progress::{IterRecord, ProgressRing, ProgressSink, RING_CAPACITY};
pub use serve::Server;
pub use watch::{Alert, AlertKind, Watchdog};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hipress_metrics::{names, Registry};

struct Inner {
    epoch: Instant,
    ring: ProgressRing,
    registry: Registry,
    watch: Mutex<Watchdog>,
    alerts: Mutex<Vec<Alert>>,
    beats: Mutex<BTreeMap<u32, u64>>,
    report_json: Mutex<Option<String>>,
    done: AtomicBool,
    /// Current membership epoch of the observed run (0 unless elastic).
    membership_epoch: AtomicU64,
}

/// The telemetry hub: everything the serving layer reads and the
/// runtime writes. Cheap to clone (one `Arc`); all methods take
/// `&self` and are safe to call from any thread.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("records", &self.records_published())
            .field("alerts", &self.alert_count())
            .field("done", &self.is_done())
            .finish()
    }
}

impl Telemetry {
    /// New hub counting alerts into `registry` (the same registry the
    /// engines record their metrics into, so one `/metrics` scrape sees
    /// both), watched by a fresh [`Watchdog`].
    pub fn new(registry: Registry) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                ring: ProgressRing::new(),
                registry,
                watch: Mutex::new(Watchdog::new()),
                alerts: Mutex::new(Vec::new()),
                beats: Mutex::new(BTreeMap::new()),
                report_json: Mutex::new(None),
                done: AtomicBool::new(false),
                membership_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// Nanoseconds since this hub was created (the telemetry epoch; the
    /// single clock every published record is stamped against).
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// The registry alert counters live in (and `/metrics` renders).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Record a sign of life from `rank` without publishing a record
    /// (the process coordinator beats on every control frame).
    pub fn beat(&self, rank: u32) {
        let now = self.now_ns();
        self.inner
            .beats
            .lock()
            .expect("beats lock")
            .insert(rank, now);
    }

    /// Per-rank heartbeat ages, `(rank, ns_since_last_beat)`.
    pub fn heartbeat_ages_ns(&self) -> Vec<(u32, u64)> {
        let now = self.now_ns();
        self.inner
            .beats
            .lock()
            .expect("beats lock")
            .iter()
            .map(|(&r, &t)| (r, now.saturating_sub(t)))
            .collect()
    }

    /// Run the heartbeat-gap detector against the current clock. A
    /// no-op once the job is done (a retired job is not "silent").
    pub fn scan_heartbeats(&self) {
        if self.is_done() {
            return;
        }
        let now = self.now_ns();
        let beats: Vec<(u32, u64)> = {
            let b = self.inner.beats.lock().expect("beats lock");
            b.iter().map(|(&r, &t)| (r, t)).collect()
        };
        let fired = self
            .inner
            .watch
            .lock()
            .expect("watch lock")
            .check_heartbeats(now, &beats);
        self.absorb_alerts(fired);
    }

    /// Total records ever published into the ring.
    pub fn records_published(&self) -> u64 {
        self.inner.ring.published()
    }

    /// Read progress records with sequence number ≥ `from`; returns the
    /// records plus the cursor to resume from.
    pub fn read_events(&self, from: u64) -> (Vec<IterRecord>, u64) {
        self.inner.ring.read_since(from)
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.alerts.lock().expect("alerts lock").clone()
    }

    /// Number of alerts fired so far.
    pub fn alert_count(&self) -> usize {
        self.inner.alerts.lock().expect("alerts lock").len()
    }

    /// Install the final report JSON served at `/report.json`.
    pub fn set_report_json(&self, json: String) {
        *self.inner.report_json.lock().expect("report lock") = Some(json);
    }

    /// The installed report JSON, if the job has retired.
    pub fn report_json(&self) -> Option<String> {
        self.inner.report_json.lock().expect("report lock").clone()
    }

    /// The run's current membership epoch (0 on fixed-membership runs).
    pub fn membership_epoch(&self) -> u64 {
        self.inner.membership_epoch.load(Ordering::Acquire)
    }

    /// Record a membership change: advance the published epoch to
    /// `epoch` and latch a [`AlertKind::MembershipChange`] alert naming
    /// the rank whose loss (or return) caused the bump. `observed` is
    /// the new epoch, `threshold` the old one, so the alert row reads
    /// as the transition itself. Exactly one alert per bump — the
    /// membership timeline in the report carries the details.
    pub fn bump_epoch(&self, epoch: u64, rank: u32, from_iter: u32) {
        let prev = self.inner.membership_epoch.swap(epoch, Ordering::AcqRel);
        self.absorb_alerts(vec![Alert {
            kind: AlertKind::MembershipChange,
            node: rank,
            iter: from_iter,
            ts_ns: self.now_ns(),
            observed: epoch,
            threshold: prev,
        }]);
    }

    /// Mark the job finished: `/events` streams terminate once drained,
    /// `/healthz` reports `done`, and heartbeat scanning stops.
    pub fn mark_done(&self) {
        self.inner.done.store(true, Ordering::Release);
    }

    /// Whether the job has been marked finished.
    pub fn is_done(&self) -> bool {
        self.inner.done.load(Ordering::Acquire)
    }

    fn absorb_alerts(&self, fired: Vec<Alert>) {
        if fired.is_empty() {
            return;
        }
        for a in &fired {
            self.inner
                .registry
                .root()
                .counter(names::ALERTS_TOTAL, &[("kind", a.kind.as_label())])
                .inc();
        }
        self.inner.alerts.lock().expect("alerts lock").extend(fired);
    }
}

impl ProgressSink for Telemetry {
    /// Publish one retired-iteration record: stamp it against the hub
    /// clock, feed the watchdog, count any alerts, push it to the ring.
    fn publish(&self, mut rec: IterRecord) {
        rec.ts_ns = self.now_ns();
        self.beat(rec.node);
        let fired = self.inner.watch.lock().expect("watch lock").observe(&rec);
        self.absorb_alerts(fired);
        self.inner.ring.push(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> Telemetry {
        Telemetry::new(Registry::new())
    }

    fn rec(node: u32, iter: u32, span_ns: u64) -> IterRecord {
        IterRecord {
            node,
            iter,
            span_ns,
            window: 1,
            ..IterRecord::default()
        }
    }

    #[test]
    fn publish_stamps_feeds_watchdog_and_counts_alerts() {
        let t = hub();
        for i in 0..5 {
            t.publish(rec(0, i, 1_000_000));
        }
        assert_eq!(t.alert_count(), 0);
        // Two consecutive 60ms iterations against a 1ms baseline.
        t.publish(rec(0, 5, 60_000_000));
        t.publish(rec(0, 6, 60_000_000));
        let alerts = t.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::IterationLatencyRegression);
        // The alert landed in the registry under the documented name.
        let snap = t.registry().snapshot();
        assert_eq!(
            snap.total_counter(names::ALERTS_TOTAL),
            1,
            "alerts_total{{kind}} must be counted in the registry"
        );
        // Records flowed to the ring with hub-stamped timestamps.
        let (events, next) = t.read_events(0);
        assert_eq!(next, 7);
        assert_eq!(events.len(), 7);
        let mut prev = 0;
        for e in &events {
            assert!(e.ts_ns >= prev, "hub stamps must be monotone");
            prev = e.ts_ns;
        }
        // Publishing beats the rank.
        let ages = t.heartbeat_ages_ns();
        assert_eq!(ages.len(), 1);
        assert_eq!(ages[0].0, 0);
    }

    /// An epoch bump advances the published membership epoch and
    /// latches exactly one `membership_change` alert per bump, counted
    /// into `alerts_total{kind="membership_change"}` like every other
    /// alert kind.
    #[test]
    fn epoch_bump_latches_one_membership_alert() {
        let t = hub();
        assert_eq!(t.membership_epoch(), 0);
        t.bump_epoch(1, 3, 7);
        t.bump_epoch(2, 3, 12);
        assert_eq!(t.membership_epoch(), 2);
        let alerts = t.alerts();
        assert_eq!(alerts.len(), 2);
        for (a, (epoch, iter)) in alerts.iter().zip([(1, 7), (2, 12)]) {
            assert_eq!(a.kind, AlertKind::MembershipChange);
            assert_eq!(a.node, 3);
            assert_eq!(a.iter, iter);
            assert_eq!(a.observed, epoch);
            assert_eq!(a.threshold, epoch - 1);
        }
        assert_eq!(
            t.registry().snapshot().total_counter(names::ALERTS_TOTAL),
            2
        );
    }

    #[test]
    fn end_to_end_over_real_sockets() {
        let t = hub();
        let srv = Server::bind("127.0.0.1:0", t.clone()).expect("bind");
        let addr = srv.addr().to_string();
        for i in 0..4 {
            t.publish(rec(1, i, 2_000_000));
        }

        let (status, body) = serve::fetch(&addr, "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"running\""), "{body}");
        assert!(body.contains("\"records\":4"), "{body}");
        assert!(body.contains("\"epoch\":0"), "{body}");
        assert!(body.contains("\"rank\":1"), "{body}");
        t.bump_epoch(1, 2, 8);
        let (_, body) = serve::fetch(&addr, "/healthz", None).expect("healthz bumped");
        assert!(body.contains("\"epoch\":1"), "{body}");

        t.registry().root().counter("bytes_wire", &[]).add(42);
        let (status, body) = serve::fetch(&addr, "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        assert!(body.contains("bytes_wire 42"), "{body}");

        let (status, body) = serve::fetch(&addr, "/report.json", None).expect("report");
        assert_eq!(status, 200);
        assert!(body.contains("\"pending\":true"), "{body}");
        t.set_report_json("{\"nodes\":3}".into());
        let (_, body) = serve::fetch(&addr, "/report.json", None).expect("report 2");
        assert_eq!(body, "{\"nodes\":3}");

        // Streamed events: grab the first two lines mid-run.
        let (status, body) = serve::fetch(&addr, "/events", Some(2)).expect("events");
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() >= 2, "{body}");
        assert!(lines[0].contains("\"node\":1"), "{body}");
        assert!(lines[0].contains("\"iter\":0"), "{body}");

        // Once done, the stream drains fully and terminates on its own.
        t.mark_done();
        let (status, body) = serve::fetch(&addr, "/events?from=2", None).expect("drain");
        assert_eq!(status, 200);
        assert_eq!(body.lines().count(), 2, "{body}");
        assert!(
            body.lines().next().unwrap().contains("\"iter\":2"),
            "{body}"
        );

        let (_, body) = serve::fetch(&addr, "/healthz", None).expect("healthz done");
        assert!(body.contains("\"status\":\"done\""), "{body}");

        let (status, _) = serve::fetch(&addr, "/nope", None).expect("404");
        assert_eq!(status, 404);
        srv.stop();
    }
}
