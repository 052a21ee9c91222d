//! # ncs-obs — the NCS telemetry plane
//!
//! One registry, every layer. The paper's evaluation lives and dies by
//! instrumentation (its Table-I send-path breakdown is the whole §5
//! argument), and the grown system had sprouted five disjoint stat
//! islands — connection counters, reactor stats, buffer-pool stats,
//! thread-package stats, ATM-simulator stats — none of which could be
//! read as one picture of a run. This crate is that picture:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free instruments.
//!   Handles are cheap clones over shared atomics: the hot path owns
//!   its handle, the [`Registry`] keeps a twin for snapshots, and a
//!   mutation is a single relaxed atomic op.
//! * [`Registry`] — dedup-by-`(name, labels)` registration, pluggable
//!   [`MetricSource`] adapters for subsystems that keep their own
//!   internal stats, and [`Registry::snapshot`] producing one
//!   [`MetricsSnapshot`] tree renderable as an aligned table
//!   ([`MetricsSnapshot::render_table`]), Prometheus text exposition
//!   ([`MetricsSnapshot::render_prometheus`]) or JSON
//!   ([`MetricsSnapshot::render_json`]).
//! * [`Histogram`] — log2-bucketed latency distribution whose
//!   p50/p90/p99/p999 estimates are exact to within one bucket
//!   (a factor of two), with no locks and no allocation on record.
//! * [`FlightRecorder`] — the per-connection message-lifecycle ring
//!   (isend → packetize → FC wait → EC session → wire → deliver),
//!   two atomic words per event, tear-tolerant dumps, and a runtime
//!   kill-switch whose "off" cost is a single relaxed load.
//! * [`postmortem`] — the `NCS_TELEMETRY_FILE` sink a dying rank writes
//!   its final dump to, which `ncs-launch` wraps with the exit cause.
//! * [`json`] — the workspace's one JSON value type, parser and tree
//!   writer: what `bench_check`, `perf_gate` and `ncs-launch`'s telemetry
//!   merge read and write dumps with.
//!
//! The crate is dependency-free so every layer of the workspace can
//! depend on it without cycles.
//!
//! ```
//! use ncs_obs::{Registry, EventKind, FlightRecorder};
//!
//! let registry = Registry::new();
//! let sent = registry.counter("msgs_sent_total", "sends", &[("conn", "1")]);
//! let lat = registry.histogram("send_us", "send latency", &[]);
//! sent.inc();
//! lat.record(12);
//!
//! let flight = FlightRecorder::new(64);
//! flight.record(EventKind::Isend, 0, 0, 8);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter_total("msgs_sent_total"), 1);
//! assert!(snap.render_prometheus().contains("# TYPE send_us histogram"));
//! assert_eq!(flight.dump().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod postmortem;
pub mod registry;
pub mod snapshot;

pub use flight::{EventKind, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    bucket_index, bucket_upper, Counter, Gauge, HistSnapshot, Histogram, HIST_BUCKETS,
};
pub use registry::{Labels, MetricSource, Registry};
pub use snapshot::{Family, MetricKind, MetricValue, MetricsSnapshot, Series};
