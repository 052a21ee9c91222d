//! The [`Registry`]: where every layer's instruments live.
//!
//! A registry is a named bag of instruments plus a list of pluggable
//! [`MetricSource`]s (adapters over subsystems that keep their own
//! internal stats, e.g. the buffer pool or a reactor). Registration
//! dedupes by `(name, labels)` and hands back a clone of the existing
//! instrument, so two callers asking for the same series share one
//! atomic. The registry lock is touched only at registration,
//! deregistration and snapshot time — never on the metric hot path.
//! Series are kept per label set (a connection's twenty or so share one),
//! so a registration costs the same however many series a node holds,
//! and retiring a label visits label sets, not series.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{Family, MetricKind, MetricValue, MetricsSnapshot, Series};

/// A label set: `(key, value)` pairs identifying one series within a
/// family (e.g. `[("conn", "3"), ("peer", "rank1")]`).
pub type Labels = Vec<(String, String)>;

fn labels_of(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    /// Registration number: a family lists its series in this order.
    number: u64,
    help: String,
    instrument: Instrument,
}

/// A subsystem that renders its internal statistics as metric families
/// on demand instead of registering individual instruments — the
/// adapter path for components that predate the registry (buffer pool,
/// reactor, thread packages) or whose stats are computed, not stored.
pub trait MetricSource: Send + Sync {
    /// Produces this source's families for one snapshot.
    fn collect(&self) -> Vec<Family>;
}

#[derive(Default)]
struct RegistryInner {
    /// Every live series: by label set, then by family name.
    series: HashMap<Labels, HashMap<String, Entry>>,
    registered: u64,
    sources: Vec<Arc<dyn MetricSource>>,
}

impl std::fmt::Debug for RegistryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryInner")
            .field("label_sets", &self.series.len())
            .field("sources", &self.sources.len())
            .finish()
    }
}

/// The metrics registry one node's layers register into.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let labels = labels_of(labels);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *inner;
        let family = inner.series.entry(labels).or_default();
        if let Some(e) = family.get(name) {
            return e.instrument.clone();
        }
        inner.registered += 1;
        let instrument = make();
        let entry = Entry {
            number: inner.registered,
            help: help.to_string(),
            instrument: instrument.clone(),
        };
        family.insert(name.to_string(), entry);
        instrument
    }

    /// Registers (or retrieves) the counter series `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers (or retrieves) the gauge series `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers (or retrieves) the histogram series `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, labels, || {
            Instrument::Histogram(Histogram::new())
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Adds a [`MetricSource`] whose families are appended to every
    /// snapshot.
    pub fn register_source(&self, source: Arc<dyn MetricSource>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.sources.push(source);
    }

    /// Drops every series carrying the label `key=value` — how a retiring
    /// component (e.g. a closed connection) keeps the registry from
    /// accumulating dead series. Handles held elsewhere keep working;
    /// they just stop being reported.
    pub fn unregister_label(&self, key: &str, value: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .series
            .retain(|labels, _| !labels.iter().any(|(k, v)| k == key && v == value));
    }

    /// Number of live registered series (sources not included).
    pub fn series_count(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .series
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Reads every instrument and source into one [`MetricsSnapshot`]
    /// tree, families sorted by name, series in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut families: Vec<Family> = Vec::new();
        let mut live: Vec<_> = inner
            .series
            .iter()
            .flat_map(|(labels, by_name)| by_name.iter().map(move |(name, e)| (name, labels, e)))
            .collect();
        live.sort_unstable_by_key(|(_, _, e)| e.number);
        for (name, labels, e) in live {
            let (kind, value) = match &e.instrument {
                Instrument::Counter(c) => (MetricKind::Counter, MetricValue::Counter(c.get())),
                Instrument::Gauge(g) => (MetricKind::Gauge, MetricValue::Gauge(g.get())),
                Instrument::Histogram(h) => {
                    (MetricKind::Histogram, MetricValue::Histogram(h.snapshot()))
                }
            };
            let series = Series {
                labels: labels.clone(),
                value,
            };
            match families.iter_mut().find(|f| &f.name == name) {
                Some(f) => f.series.push(series),
                None => families.push(Family {
                    name: name.clone(),
                    help: e.help.clone(),
                    kind,
                    series: vec![series],
                }),
            }
        }
        for source in &inner.sources {
            for fam in source.collect() {
                match families.iter_mut().find(|f| f.name == fam.name) {
                    Some(f) => f.series.extend(fam.series),
                    None => families.push(fam),
                }
            }
        }
        drop(inner);
        families.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { families }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedupes_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("x_total", "help", &[("conn", "1")]);
        let b = r.counter("x_total", "help", &[("conn", "1")]);
        let c = r.counter("x_total", "help", &[("conn", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
        assert_eq!(r.series_count(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", "", &[]);
        let _ = r.gauge("x", "", &[]);
    }

    #[test]
    fn unregister_label_retires_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "", &[("conn", "1")]);
        let _ = r.counter("x_total", "", &[("conn", "2")]);
        let _ = r.gauge("depth", "", &[("conn", "1")]);
        r.unregister_label("conn", "1");
        assert_eq!(r.series_count(), 1);
        // Detached handles keep working.
        a.inc();
        assert_eq!(a.get(), 1);
    }

    /// A series retired under one of its labels is gone under the others
    /// too, and its identity registers afresh.
    #[test]
    fn a_retired_series_registers_afresh() {
        let r = Registry::new();
        let one = [("conn", "1"), ("peer", "a")];
        r.counter("x_total", "", &one).add(5);
        let _ = r.counter("x_total", "", &[("conn", "2"), ("peer", "a")]);
        r.unregister_label("conn", "1");
        assert_eq!(r.series_count(), 1);
        assert_eq!(r.counter("x_total", "", &one).get(), 0);
        r.unregister_label("peer", "a");
        assert_eq!(r.series_count(), 0);
        assert!(r.snapshot().families.is_empty());
    }

    #[test]
    fn snapshot_groups_series_into_families() {
        let r = Registry::new();
        r.counter("msgs_total", "messages", &[("conn", "1")]).add(3);
        r.counter("msgs_total", "messages", &[("conn", "2")]).add(4);
        r.gauge("depth", "queue depth", &[]).set(7);
        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 2);
        let msgs = snap.family("msgs_total").expect("family");
        assert_eq!(msgs.series.len(), 2);
        assert_eq!(snap.counter_total("msgs_total"), 7);
    }

    struct FixedSource;
    impl MetricSource for FixedSource {
        fn collect(&self) -> Vec<Family> {
            vec![Family {
                name: "src_metric".into(),
                help: "from a source".into(),
                kind: MetricKind::Counter,
                series: vec![Series {
                    labels: vec![],
                    value: MetricValue::Counter(9),
                }],
            }]
        }
    }

    #[test]
    fn sources_contribute_families() {
        let r = Registry::new();
        r.register_source(Arc::new(FixedSource));
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("src_metric"), 9);
    }
}
