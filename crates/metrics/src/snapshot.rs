//! Immutable metric snapshots: the `BENCH_*.json` format.
//!
//! A [`MetricsSnapshot`] is what a [`crate::Registry`] looks like at
//! one instant: a sorted map from [`Key`] to [`MetricValue`], plus
//! free-form run metadata (tool, git revision, configuration). It is
//! the unit of persistence (`to_json` / `from_json`, schema-versioned
//! as [`SCHEMA`]), of aggregation ([`MetricsSnapshot::merge`] — bucket
//! counts add, counters add, so merging is associative), and of
//! comparison ([`crate::MetricsDiff`]).
//!
//! The serializer rides on `hipress-trace`'s RFC-8259 JSON machinery;
//! the workspace builds fully offline, so the format carries its own
//! reader and the CI smoke step re-parses everything it emits.
//! Histogram buckets are stored by *bucket index* (the geometry of
//! `hipress_trace::hist`), never by bound, so no value in a snapshot
//! exceeds 2^53 and every number survives the `f64` JSON dialect.

use crate::registry::{Key, LabelSet};
use hipress_trace::hist;
use hipress_trace::json::{self, Json};
use hipress_util::{Error, Result};
use std::collections::BTreeMap;

/// The snapshot schema identifier; bump on breaking format changes.
pub const SCHEMA: &str = "hipress-metrics/v1";

/// The summary of one histogram: exact count/sum/min/max plus the
/// non-empty log buckets as `(bucket_index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact smallest observation (0 if empty).
    pub min: u64,
    /// Exact largest observation (0 if empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSummary {
    /// Exact mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile, or `None` if empty: [`hist::quantile`] over
    /// the buckets, the interpolation
    /// [`hipress_trace::LatencyHistogram::quantile`] uses too.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let buckets = self.buckets.iter().copied();
        hist::quantile(buckets, self.count, self.min, self.max, q)
    }

    /// Convenience: p50 (0 if empty).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5).unwrap_or(0)
    }

    /// Convenience: p90 (0 if empty).
    pub fn p90(&self) -> u64 {
        self.quantile(0.9).unwrap_or(0)
    }

    /// Convenience: p99 (0 if empty).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Merges `other` into this summary (bucket counts add; extremes
    /// and totals combine), so merge order never matters.
    pub fn merge(&mut self, other: &HistSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for &(b, c) in &other.buckets {
            *merged.entry(b).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// One metric's snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic count.
    Counter(u64),
    /// A last-value instrument.
    Gauge(f64),
    /// A log-bucketed distribution.
    Histogram(HistSummary),
    /// Retained `(sequence, value)` samples.
    Series(Vec<(u64, f64)>),
}

impl MetricValue {
    /// The kind tag used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
            MetricValue::Series(_) => "series",
        }
    }

    /// A single comparable number for diffing: the count for
    /// counters, the value for gauges, the mean for histograms, the
    /// mean of retained samples for series.
    pub fn scalar(&self) -> f64 {
        match self {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(h) => h.mean(),
            MetricValue::Series(s) => {
                if s.is_empty() {
                    0.0
                } else {
                    s.iter().map(|&(_, v)| v).sum::<f64>() / s.len() as f64
                }
            }
        }
    }
}

/// An immutable snapshot: run metadata plus a sorted metric map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Free-form run metadata (`tool`, `git_rev`, configuration …).
    pub meta: BTreeMap<String, String>,
    metrics: BTreeMap<Key, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one metadata entry (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: &str) -> Self {
        self.meta.insert(key.to_string(), value.to_string());
        self
    }

    /// Inserts or replaces one metric.
    pub fn insert(&mut self, key: Key, value: MetricValue) {
        self.metrics.insert(key, value);
    }

    /// The value of `key`.
    pub fn get(&self, key: &Key) -> Option<&MetricValue> {
        self.metrics.get(key)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.metrics.keys()
    }

    /// All `(key, value)` pairs, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &MetricValue)> {
        self.metrics.iter()
    }

    /// Number of metric series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Sum of every counter named `name` across label sets.
    pub fn total_counter(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Total `(count, sum)` of every histogram named `name` across
    /// label sets.
    pub fn hist_totals(&self, name: &str) -> (u64, u64) {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Histogram(h) => Some((h.count, h.sum)),
                _ => None,
            })
            .fold((0, 0), |(c, s), (hc, hs)| (c + hc, s + hs))
    }

    /// Merges `other` into this snapshot. Counters add, histograms
    /// add bucket-wise, series concatenate, gauges take `other`
    /// (latest wins); metadata takes `other` on key conflicts. All
    /// rules are associative, so folding any number of per-node or
    /// per-run snapshots gives one order-independent aggregate.
    ///
    /// # Errors
    ///
    /// Returns an error when the same key carries different metric
    /// kinds in the two snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<()> {
        for (k, v) in &other.meta {
            self.meta.insert(k.clone(), v.clone());
        }
        for (key, theirs) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), theirs.clone());
                }
                Some(ours) => match (ours, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (MetricValue::Series(a), MetricValue::Series(b)) => {
                        a.extend(b.iter().copied());
                    }
                    (ours, theirs) => {
                        return Err(Error::config(format!(
                            "merge: {key} is a {} here but a {} there",
                            ours.kind(),
                            theirs.kind()
                        )));
                    }
                },
            }
        }
        Ok(())
    }

    /// Serializes to the schema-versioned JSON snapshot format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": ");
        json::write_str(&mut out, SCHEMA);
        out.push_str(",\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(&mut out, k);
            out.push_str(": ");
            json::write_str(&mut out, v);
        }
        if !self.meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"metrics\": [");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_str(&mut out, &key.name);
            out.push_str(", \"labels\": {");
            for (j, (lk, lv)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_str(&mut out, lk);
                out.push_str(": ");
                json::write_str(&mut out, lv);
            }
            out.push_str("}, \"kind\": ");
            json::write_str(&mut out, value.kind());
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(", \"value\": ");
                    json::write_num(&mut out, *c as f64);
                }
                MetricValue::Gauge(g) => {
                    out.push_str(", \"value\": ");
                    json::write_num(&mut out, *g);
                }
                MetricValue::Histogram(h) => {
                    for (field, v) in [
                        ("count", h.count),
                        ("sum", h.sum),
                        ("min", h.min),
                        ("max", h.max),
                        // Derived quantiles, stored for human and
                        // external-tool consumption; the parser
                        // recomputes them from the buckets.
                        ("p50", h.p50()),
                        ("p90", h.p90()),
                        ("p99", h.p99()),
                    ] {
                        out.push_str(", \"");
                        out.push_str(field);
                        out.push_str("\": ");
                        json::write_num(&mut out, v as f64);
                    }
                    out.push_str(", \"buckets\": [");
                    for (j, &(b, c)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push('[');
                        json::write_num(&mut out, b as f64);
                        out.push_str(", ");
                        json::write_num(&mut out, c as f64);
                        out.push(']');
                    }
                    out.push(']');
                }
                MetricValue::Series(points) => {
                    out.push_str(", \"points\": [");
                    for (j, &(seq, v)) in points.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push('[');
                        json::write_num(&mut out, seq as f64);
                        out.push_str(", ");
                        json::write_num(&mut out, v);
                        out.push(']');
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON, an unknown schema version,
    /// or structurally invalid metric entries.
    pub fn from_json(src: &str) -> Result<Self> {
        let doc = json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::config("snapshot: missing \"schema\""))?;
        if schema != SCHEMA {
            return Err(Error::config(format!(
                "snapshot: schema {schema:?}, this reader understands {SCHEMA:?}"
            )));
        }
        let mut snap = MetricsSnapshot::new();
        if let Some(Json::Obj(meta)) = doc.get("meta") {
            for (k, v) in meta {
                if let Json::Str(s) = v {
                    snap.meta.insert(k.clone(), s.clone());
                }
            }
        }
        let entries = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::config("snapshot: missing \"metrics\" array"))?;
        for e in entries {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| Error::config("snapshot: metric without a name"))?;
            let mut labels = LabelSet::default();
            if let Some(Json::Obj(ls)) = e.get("labels") {
                for (k, v) in ls {
                    if let Json::Str(s) = v {
                        labels.insert(k, s);
                    }
                }
            }
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| Error::config(format!("snapshot: {name}: missing kind")))?;
            let num = |field: &str| -> Result<f64> {
                e.get(field).and_then(Json::as_f64).ok_or_else(|| {
                    Error::config(format!("snapshot: {name}: missing number {field:?}"))
                })
            };
            let value = match kind {
                "counter" => MetricValue::Counter(num("value")? as u64),
                "gauge" => MetricValue::Gauge(num("value")?),
                "histogram" => {
                    let mut buckets = Vec::new();
                    for pair in e
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| Error::config(format!("snapshot: {name}: no buckets")))?
                    {
                        let p = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            Error::config(format!("snapshot: {name}: bad bucket pair"))
                        })?;
                        let idx = p[0].as_f64().unwrap_or(-1.0);
                        let count = p[1].as_f64().unwrap_or(-1.0);
                        if !(0.0..hipress_trace::hist::BUCKETS as f64).contains(&idx) || count < 0.0
                        {
                            return Err(Error::config(format!(
                                "snapshot: {name}: bucket out of range"
                            )));
                        }
                        buckets.push((idx as usize, count as u64));
                    }
                    MetricValue::Histogram(HistSummary {
                        count: num("count")? as u64,
                        sum: num("sum")? as u64,
                        min: num("min")? as u64,
                        max: num("max")? as u64,
                        buckets,
                    })
                }
                "series" => {
                    let mut points = Vec::new();
                    for pair in e
                        .get("points")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| Error::config(format!("snapshot: {name}: no points")))?
                    {
                        let p = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            Error::config(format!("snapshot: {name}: bad point pair"))
                        })?;
                        points.push((
                            p[0].as_f64().unwrap_or(0.0) as u64,
                            p[1].as_f64().unwrap_or(0.0),
                        ));
                    }
                    MetricValue::Series(points)
                }
                other => {
                    return Err(Error::config(format!(
                        "snapshot: {name}: unknown kind {other:?}"
                    )));
                }
            };
            snap.insert(Key::new(name, labels), value);
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistSummary {
        let reg = crate::Registry::new();
        let h = reg.root().histogram("h", &[]);
        for &v in values {
            h.record(v);
        }
        h.summary()
    }

    #[test]
    fn hist_summary_matches_trace_histogram() {
        // The live histogram and the trace-side LatencyHistogram use
        // one bucket geometry and one interpolation, so identical
        // inputs yield identical quantiles.
        let mut vals = Vec::new();
        let mut x = 7u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 5_000_000;
            vals.push(x);
        }
        let s = hist(&vals);
        let mut t = hipress_trace::LatencyHistogram::new();
        for &v in &vals {
            t.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), t.quantile(q), "q={q}");
        }
        assert_eq!(s.count, t.count());
        assert_eq!(s.min, t.min_ns());
        assert_eq!(s.max, t.max_ns());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let mut snap = MetricsSnapshot::new()
            .with_meta("tool", "test")
            .with_meta("git_rev", "abc123");
        snap.insert(
            Key::new("bytes_wire", LabelSet::new(&[("node", "0")])),
            MetricValue::Counter(12345),
        );
        snap.insert(
            Key::new("throughput_bytes_per_sec", LabelSet::default()),
            MetricValue::Gauge(1.25e9),
        );
        snap.insert(
            Key::new(
                "encode_ns",
                LabelSet::new(&[("node", "1"), ("algorithm", "onebit")]),
            ),
            MetricValue::Histogram(hist(&[10, 20, 20, 9000, 0])),
        );
        snap.insert(
            Key::new("iteration_ns", LabelSet::default()),
            MetricValue::Series(vec![(0, 100.0), (1, 95.5), (2, 103.25)]),
        );
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // And re-serializing is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let text = MetricsSnapshot::new().to_json();
        let bad = text.replace(SCHEMA, "hipress-metrics/v999");
        assert!(MetricsSnapshot::from_json(&bad).is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn merge_combines_kinds_correctly() {
        let key_c = Key::new("c", LabelSet::default());
        let key_g = Key::new("g", LabelSet::default());
        let key_h = Key::new("h_ns", LabelSet::default());
        let mut a = MetricsSnapshot::new();
        a.insert(key_c.clone(), MetricValue::Counter(10));
        a.insert(key_g.clone(), MetricValue::Gauge(1.0));
        a.insert(key_h.clone(), MetricValue::Histogram(hist(&[5, 5])));
        let mut b = MetricsSnapshot::new();
        b.insert(key_c.clone(), MetricValue::Counter(7));
        b.insert(key_g.clone(), MetricValue::Gauge(2.0));
        b.insert(key_h.clone(), MetricValue::Histogram(hist(&[1000])));
        a.merge(&b).unwrap();
        assert_eq!(a.get(&key_c), Some(&MetricValue::Counter(17)));
        assert_eq!(a.get(&key_g), Some(&MetricValue::Gauge(2.0)));
        match a.get(&key_h).unwrap() {
            MetricValue::Histogram(h) => {
                assert_eq!((h.count, h.sum, h.min, h.max), (3, 1010, 5, 1000));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_kind_mismatch_errors() {
        let key = Key::new("x", LabelSet::default());
        let mut a = MetricsSnapshot::new();
        a.insert(key.clone(), MetricValue::Counter(1));
        let mut b = MetricsSnapshot::new();
        b.insert(key, MetricValue::Gauge(1.0));
        assert!(a.merge(&b).is_err());
    }
}
