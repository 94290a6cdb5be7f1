//! The trace data model: tracks, events, counter samples.
//!
//! A [`Trace`] is pure data — no clocks, no locks. Recording handles
//! live in [`crate::tracer`]; serialization in [`crate::chrome`]. Both
//! the simulator (simulated nanoseconds) and CaSync-RT (wall-clock
//! nanoseconds measured from the tracer's epoch) lower into this one
//! model, which is what lets a simulated and a measured run of the
//! same plan render side by side.

use crate::hist::LatencyHistogram;

/// Identifies a registered track within one [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub(crate) usize);

impl TrackId {
    /// The track's index in registration order.
    pub fn index(&self) -> usize {
        self.0
    }
}

hipress_util::record! {
    /// What kind of data a track carries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrackKind ["track kind"] {
        /// A timeline of spans and instant events (one per node thread).
        Thread = 1,
        /// A sampled numeric series (queue depths).
        Counter = 2,
    }
}

hipress_util::record! {
    /// One recorded event: a span (`dur_ns > 0` or a zero-length mark) or
    /// an instant (`instant == true`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Event {
        /// Display name ("encode", "msg", "run").
        pub name: String,
        /// Grouping category; per-primitive statistics key on this
        /// ("encode", "send", "fabric", "local_agg", "batch", "run").
        pub category: String,
        /// Start, in nanoseconds from the trace origin.
        pub ts_ns: u64,
        /// Duration in nanoseconds (0 for instants).
        pub dur_ns: u64,
        /// True for point events (message arrivals, batch launches).
        pub instant: bool,
        /// Numeric arguments ("bytes_wire", "grad", …), sorted by name —
        /// a canonical order shared with the Chrome JSON reader, which
        /// keeps export → import byte-for-byte lossless.
        pub args: Vec<(String, u64)>,
    }
}

impl Event {
    /// Looks up a numeric argument by name.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// End of the event (`ts_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

hipress_util::record! {
    /// One named track: a thread timeline or a counter series.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Track {
        /// Track name ("node0", "node0/Q_comp", "engine").
        pub name: String,
        /// Thread timeline or counter series.
        pub kind: TrackKind,
        /// Spans and instants, in recording order ([`TrackKind::Thread`]).
        pub events: Vec<Event>,
        /// `(ts_ns, value)` samples, in recording order
        /// ([`TrackKind::Counter`]).
        pub samples: Vec<(u64, f64)>,
    }
}

hipress_util::record! {
    /// A complete recorded trace: one process, many tracks. A record,
    /// so a worker process ships its trace home in the workspace's
    /// binary codec; Chrome JSON ([`crate::chrome`]) is the export.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Trace {
        /// Which engine produced the trace ("casync-rt", "sim").
        pub process: String,
        tracks: Vec<Track>,
    }
}

impl Trace {
    /// Creates an empty trace for the named process.
    pub fn new(process: &str) -> Self {
        Self {
            process: process.to_string(),
            tracks: Vec::new(),
        }
    }

    /// Registers (or finds) a thread track by name.
    pub fn thread_track(&mut self, name: &str) -> TrackId {
        self.track_of_kind(name, TrackKind::Thread)
    }

    /// Registers (or finds) a counter track by name.
    pub fn counter_track(&mut self, name: &str) -> TrackId {
        self.track_of_kind(name, TrackKind::Counter)
    }

    fn track_of_kind(&mut self, name: &str, kind: TrackKind) -> TrackId {
        if let Some(i) = self.tracks.iter().position(|t| t.name == name) {
            return TrackId(i);
        }
        self.tracks.push(Track {
            name: name.to_string(),
            kind,
            events: Vec::new(),
            samples: Vec::new(),
        });
        TrackId(self.tracks.len() - 1)
    }

    /// Looks up an existing track by name.
    pub fn find_track(&self, name: &str) -> Option<TrackId> {
        self.tracks.iter().position(|t| t.name == name).map(TrackId)
    }

    /// All tracks in registration order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// One track by id.
    pub fn track(&self, id: TrackId) -> &Track {
        &self.tracks[id.0]
    }

    /// Records a span on a thread track.
    pub fn push_span(
        &mut self,
        track: TrackId,
        name: &str,
        category: &str,
        ts_ns: u64,
        dur_ns: u64,
        args: &[(&str, u64)],
    ) {
        self.push_event(track, name, category, ts_ns, dur_ns, false, args);
    }

    /// Records an instant event on a thread track.
    pub fn push_instant(
        &mut self,
        track: TrackId,
        name: &str,
        category: &str,
        ts_ns: u64,
        args: &[(&str, u64)],
    ) {
        self.push_event(track, name, category, ts_ns, 0, true, args);
    }

    fn push_event(
        &mut self,
        track: TrackId,
        name: &str,
        category: &str,
        ts_ns: u64,
        dur_ns: u64,
        instant: bool,
        args: &[(&str, u64)],
    ) {
        debug_assert!(matches!(self.tracks[track.0].kind, TrackKind::Thread));
        let mut args: Vec<(String, u64)> = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        args.sort_by(|a, b| a.0.cmp(&b.0));
        self.tracks[track.0].events.push(Event {
            name: name.to_string(),
            category: category.to_string(),
            ts_ns,
            dur_ns,
            instant,
            args,
        });
    }

    /// Records one sample on a counter track.
    pub fn push_sample(&mut self, track: TrackId, ts_ns: u64, value: f64) {
        debug_assert!(matches!(self.tracks[track.0].kind, TrackKind::Counter));
        self.tracks[track.0].samples.push((ts_ns, value));
    }

    /// The earliest timestamp in the trace (`0` when empty). Wall-clock
    /// traces start at the tracer's epoch, not at zero; views subtract
    /// this origin so simulated and measured runs align at t=0.
    pub fn origin_ns(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| {
                t.events
                    .iter()
                    .map(|e| e.ts_ns)
                    .chain(t.samples.iter().map(|&(ts, _)| ts))
            })
            .min()
            .unwrap_or(0)
    }

    /// The latest event end / sample timestamp in the trace.
    pub fn end_ns(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| {
                t.events
                    .iter()
                    .map(Event::end_ns)
                    .chain(t.samples.iter().map(|&(ts, _)| ts))
            })
            .max()
            .unwrap_or(0)
    }

    /// Total number of events and counter samples.
    pub fn len(&self) -> usize {
        self.tracks
            .iter()
            .map(|t| t.events.len() + t.samples.len())
            .sum()
    }

    /// True when no track recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All span/instant events of one category, across tracks.
    pub fn events_of<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a Event> {
        self.tracks
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(move |e| e.category == category)
    }

    /// The categories present in the trace, in first-appearance order.
    pub fn categories(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.tracks {
            for e in &t.events {
                if !out.contains(&e.category.as_str()) {
                    out.push(&e.category);
                }
            }
        }
        out
    }

    /// The latency distribution of all spans in `category`.
    pub fn latency_histogram(&self, category: &str) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for e in self.events_of(category) {
            if !e.instant {
                h.record(e.dur_ns);
            }
        }
        h
    }

    /// Structural sanity: every registered track carries at least one
    /// event or sample. Returns the names of empty tracks.
    ///
    /// # Errors
    ///
    /// Returns the offending track names so callers (the CI smoke
    /// step) can report which track recorded nothing.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let empty: Vec<String> = self
            .tracks
            .iter()
            .filter(|t| t.events.is_empty() && t.samples.is_empty())
            .map(|t| t.name.clone())
            .collect();
        if empty.is_empty() {
            Ok(())
        } else {
            Err(empty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_registration_is_idempotent() {
        let mut t = Trace::new("test");
        let a = t.thread_track("node0");
        let b = t.thread_track("node0");
        assert_eq!(a, b);
        assert_eq!(t.find_track("node0"), Some(a));
        assert_eq!(t.find_track("node1"), None);
        let c = t.counter_track("node0/Q_comp");
        assert_ne!(a, c);
        assert_eq!(t.tracks().len(), 2);
    }

    #[test]
    fn span_accounting() {
        let mut t = Trace::new("test");
        let n0 = t.thread_track("node0");
        t.push_span(n0, "encode", "encode", 100, 50, &[("bytes_raw", 4096)]);
        t.push_span(n0, "send", "send", 150, 10, &[("bytes_wire", 512)]);
        t.push_instant(n0, "msg", "fabric", 160, &[]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.origin_ns(), 100);
        assert_eq!(t.end_ns(), 160);
        assert_eq!(t.events_of("encode").count(), 1);
        let e = t.events_of("send").next().unwrap();
        assert_eq!(e.arg("bytes_wire"), Some(512));
        assert_eq!(e.arg("missing"), None);
        assert_eq!(t.categories(), vec!["encode", "send", "fabric"]);
    }

    #[test]
    fn validate_flags_empty_tracks() {
        let mut t = Trace::new("test");
        let n0 = t.thread_track("node0");
        t.thread_track("node1");
        t.push_span(n0, "x", "x", 0, 1, &[]);
        assert_eq!(t.validate(), Err(vec!["node1".to_string()]));
        let n1 = t.find_track("node1").unwrap();
        t.push_span(n1, "x", "x", 0, 1, &[]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn histogram_from_spans() {
        let mut t = Trace::new("test");
        let n0 = t.thread_track("node0");
        for d in [100u64, 200, 400] {
            t.push_span(n0, "encode", "encode", 0, d, &[]);
        }
        t.push_instant(n0, "msg", "encode", 0, &[]); // instants excluded
        let h = t.latency_histogram("encode");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_ns(), 400);
    }
}
