//! Connection statistics, and the adapters that plug this crate's subsystems into the
//! [`ncs_obs::Registry`] telemetry plane.

use std::fmt;
use std::sync::Arc;

use ncs_obs::{
    Counter, Family, Gauge, Histogram, MetricKind, MetricSource, MetricValue, Registry, Series,
};

use crate::pool::BufPool;
use crate::reactor::Reactor;

/// Counters kept by every connection — [`ncs_obs::Counter`] handles, so
/// the same atomics back both the exact per-connection
/// [`ConnectionStats`] and the node's registry snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConnCounters {
    pub messages_sent: Counter,
    pub messages_received: Counter,
    pub packets_sent: Counter,
    pub packets_received: Counter,
    pub retransmissions: Counter,
    pub acks_sent: Counter,
    pub acks_received: Counter,
    pub feedback_sent: Counter,
    pub credits_granted: Counter,
    pub credits_received: Counter,
    pub send_failures: Counter,
    pub frames_rejected: Counter,
    pub ack_timeouts: Counter,
    /// Every round trip the retransmission timer learned from.
    pub ack_rtt_us: Histogram,
    pub srtt_us: Gauge,
    pub rto_us: Gauge,
}

impl ConnCounters {
    /// Counters registered into `registry` as per-connection labelled
    /// series (`conn="<id>", peer="<name>"`). The returned handles and
    /// the registry share atomics; when the connection retires, the node
    /// drops the series with [`Registry::unregister_label`].
    pub(crate) fn registered(registry: &Registry, conn: u32, peer: &str) -> Self {
        let id = conn.to_string();
        let labels: &[(&str, &str)] = &[("conn", &id), ("peer", peer)];
        let c = |name: &str, help: &str| registry.counter(name, help, labels);
        ConnCounters {
            messages_sent: c(
                "ncs_conn_messages_sent_total",
                "user messages accepted by the send path",
            ),
            messages_received: c(
                "ncs_conn_messages_received_total",
                "user messages delivered to the application",
            ),
            packets_sent: c(
                "ncs_conn_packets_sent_total",
                "SDU packets transmitted (including retransmissions)",
            ),
            packets_received: c("ncs_conn_packets_received_total", "SDU packets received"),
            retransmissions: c(
                "ncs_conn_retransmissions_total",
                "SDU packets retransmitted by error control",
            ),
            acks_sent: c("ncs_conn_acks_sent_total", "acknowledgements sent"),
            acks_received: c("ncs_conn_acks_received_total", "acknowledgements received"),
            feedback_sent: c(
                "ncs_conn_feedback_frames_total",
                "control frames of flow and error control sent: acknowledgements, each with the credit edge it owes, and edges sent alone",
            ),
            credits_granted: c(
                "ncs_conn_credits_granted_total",
                "SDUs the credit edge advertised to the peer advanced",
            ),
            credits_received: c(
                "ncs_conn_credits_received_total",
                "SDUs the credit edge advertised by the peer advanced",
            ),
            send_failures: c(
                "ncs_conn_send_failures_total",
                "messages that exhausted their retry budget",
            ),
            frames_rejected: c(
                "ncs_conn_frames_rejected_total",
                "data frames the receive plane refused as malformed",
            ),
            ack_timeouts: c(
                "ncs_conn_ack_timeouts_total",
                "acknowledgement waits that ran out (probes included)",
            ),
            ack_rtt_us: registry.histogram(
                "ncs_conn_ack_rtt_us",
                "last SDU released to clean acknowledgement, unretransmitted sessions (us)",
                labels,
            ),
            srtt_us: registry.gauge(
                "ncs_conn_srtt_us",
                "smoothed acknowledgement round trip (us; 0 = no sample yet)",
                labels,
            ),
            rto_us: registry.gauge(
                "ncs_conn_rto_us",
                "current retransmission timeout (us)",
                labels,
            ),
        }
    }

    pub(crate) fn snapshot(&self) -> ConnectionStats {
        ConnectionStats {
            messages_sent: self.messages_sent.get(),
            messages_received: self.messages_received.get(),
            packets_sent: self.packets_sent.get(),
            packets_received: self.packets_received.get(),
            retransmissions: self.retransmissions.get(),
            acks_sent: self.acks_sent.get(),
            acks_received: self.acks_received.get(),
            feedback_sent: self.feedback_sent.get(),
            credits_granted: self.credits_granted.get(),
            credits_received: self.credits_received.get(),
            send_failures: self.send_failures.get(),
            frames_rejected: self.frames_rejected.get(),
            ack_timeouts: self.ack_timeouts.get(),
            ack_rtt_samples: self.ack_rtt_us.count(),
            srtt_us: self.srtt_us.get() as u64,
            rto_us: self.rto_us.get() as u64,
        }
    }
}

fn counter_family(name: &str, help: &str, v: u64) -> Family {
    Family {
        name: name.to_string(),
        help: help.to_string(),
        kind: MetricKind::Counter,
        series: vec![Series {
            labels: Vec::new(),
            value: MetricValue::Counter(v),
        }],
    }
}

fn gauge_family(name: &str, help: &str, v: i64) -> Family {
    Family {
        name: name.to_string(),
        help: help.to_string(),
        kind: MetricKind::Gauge,
        series: vec![Series {
            labels: Vec::new(),
            value: MetricValue::Gauge(v),
        }],
    }
}

/// [`MetricSource`] over a node's [`BufPool`] — reads
/// [`PoolStats`](crate::pool::PoolStats) on each snapshot.
pub(crate) struct PoolMetricSource(pub(crate) Arc<BufPool>);

impl MetricSource for PoolMetricSource {
    fn collect(&self) -> Vec<Family> {
        let s = self.0.stats();
        vec![
            counter_family("ncs_pool_checkouts_total", "buffer checkouts", s.checkouts),
            counter_family("ncs_pool_hits_total", "recycled-buffer hits", s.hits),
            counter_family("ncs_pool_misses_total", "fresh allocations", s.misses),
            counter_family("ncs_pool_returns_total", "buffers returned", s.returns),
            counter_family(
                "ncs_pool_discards_total",
                "returned buffers dropped (shard full / oversized)",
                s.discards,
            ),
        ]
    }
}

/// [`MetricSource`] over a node's [`Reactor`] — reads [`ReactorStats`]
/// on each snapshot.
pub(crate) struct ReactorMetricSource(pub(crate) Arc<Reactor>);

impl MetricSource for ReactorMetricSource {
    fn collect(&self) -> Vec<Family> {
        let s = self.0.stats();
        vec![
            gauge_family(
                "ncs_reactor_workers",
                "event-loop shard workers",
                s.workers as i64,
            ),
            gauge_family(
                "ncs_reactor_endpoints",
                "live registered connection tasks",
                s.endpoints as i64,
            ),
            counter_family("ncs_reactor_polls_total", "worker loop iterations", s.polls),
            counter_family(
                "ncs_reactor_wakeups_total",
                "task wakeups delivered",
                s.wakeups,
            ),
            counter_family(
                "ncs_reactor_task_runs_total",
                "individual task polls",
                s.task_runs,
            ),
            counter_family(
                "ncs_reactor_timer_fires_total",
                "timer deadlines fired",
                s.timer_fires,
            ),
            counter_family(
                "ncs_reactor_fd_events_total",
                "fd readiness events delivered",
                s.fd_events,
            ),
            counter_family(
                "ncs_reactor_poller_wakes_total",
                "shard waits in their epoll set that returned readiness reports",
                s.poller_wakes,
            ),
            counter_family(
                "ncs_reactor_stalled_tasks_total",
                "tasks observed stalled (healthy: 0)",
                s.stalled_tasks,
            ),
            counter_family(
                "ncs_reactor_short_parks_total",
                "event-loop waits bounded by a deadline under one timer tick away",
                s.short_parks,
            ),
            counter_family(
                "ncs_reactor_tasks_left_at_shutdown_total",
                "tasks dropped unfinished when a shutdown's drain bound passed (healthy: 0)",
                s.tasks_left_at_shutdown,
            ),
            counter_family(
                "ncs_reactor_blocking_spawned_total",
                "always 0: the blocking lane is gone, the series is kept for its readers",
                s.blocking_spawned,
            ),
        ]
    }
}

/// [`MetricSource`] over the node's thread package — reads
/// [`ncs_threads::PackageStats`] on each snapshot.
pub(crate) struct PackageMetricSource(pub(crate) Arc<dyn ncs_threads::ThreadPackage>);

impl MetricSource for PackageMetricSource {
    fn collect(&self) -> Vec<Family> {
        let s = self.0.stats();
        vec![
            counter_family(
                "ncs_threads_context_switches_total",
                "scheduler context switches",
                s.context_switches,
            ),
            counter_family("ncs_threads_yields_total", "voluntary yields", s.yields),
            counter_family(
                "ncs_threads_blocks_total",
                "threads parked on a primitive",
                s.blocks,
            ),
            counter_family("ncs_threads_spawns_total", "threads spawned", s.spawns),
        ]
    }
}

/// Point-in-time statistics of one NCS connection.
///
/// Messages and packets are counted apart, and neither bounds the other:
/// a long message is many packets, and small messages queued behind a
/// session in flight share one packet (a *train*, see `ARCHITECTURE.md`),
/// so a stream of them reads `packets_sent` well below `messages_sent`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// User messages accepted by `NCS_send`.
    pub messages_sent: u64,
    /// User messages delivered to the receive buffer.
    pub messages_received: u64,
    /// SDU packets transmitted (including retransmissions). A train of
    /// small messages is one packet.
    pub packets_sent: u64,
    /// SDU packets received.
    pub packets_received: u64,
    /// SDU packets retransmitted by error control.
    pub retransmissions: u64,
    /// Acknowledgements sent (on the data channel, against its data).
    pub acks_sent: u64,
    /// Acknowledgements received.
    pub acks_received: u64,
    /// Feedback frames sent on the data channel, against its data: every
    /// acknowledgement (the credit edge rides in it) and every credit edge
    /// sent alone, when an arrival no acknowledgement answered owed one.
    /// A reliable one-SDU message costs one.
    pub feedback_sent: u64,
    /// SDUs the credit edge advertised to the peer advanced.
    pub credits_granted: u64,
    /// SDUs the credit edge advertised by the peer advanced.
    pub credits_received: u64,
    /// Messages that exhausted their error-control retry budget. The
    /// messages of a train share one error-control session: if it fails,
    /// every one of them fails and is counted here.
    pub send_failures: u64,
    /// Data frames the receive plane refused: a sequence number beyond the
    /// largest message, a train flag on a frame that is not a whole
    /// one-SDU session, or a train whose records do not parse (that one is
    /// acknowledged — it arrived intact — and dropped whole). No sender of
    /// this crate produces any of them.
    pub frames_rejected: u64,
    /// Waits for an acknowledgement that ran out. Each one retransmits
    /// (and is counted in `retransmissions`); only those that waited the
    /// full configured timeout spend the error-control retry budget.
    pub ack_timeouts: u64,
    /// Round trips the retransmission timer has learned from: last SDU
    /// released to clean acknowledgement, of sessions that retransmitted
    /// nothing. The distribution is the registry's `ncs_conn_ack_rtt_us`.
    pub ack_rtt_samples: u64,
    /// Smoothed acknowledgement round trip in microseconds; 0 before the
    /// first sample.
    pub srtt_us: u64,
    /// The retransmission timeout now in force, in microseconds: the
    /// configured timeout before the first sample and after enough
    /// back-off, `SRTT + 4·RTTVAR` (floored) in between; 0 under an
    /// algorithm that expects no acknowledgement.
    pub rto_us: u64,
}

impl std::fmt::Display for ConnectionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "msgs {}tx/{}rx, pkts {}tx/{}rx ({} retrans), acks {}tx/{}rx, credits {}granted/{}got",
            self.messages_sent,
            self.messages_received,
            self.packets_sent,
            self.packets_received,
            self.retransmissions,
            self.acks_sent,
            self.acks_received,
            self.credits_granted,
            self.credits_received,
        )
    }
}

/// Point-in-time statistics for a [`crate::Reactor`]: how many event
/// loops exist, how many endpoints (connection tasks) they multiplex, and
/// how busy the readiness machinery is. The benchmark reports them per
/// message (`reactor.*`), and `MetricSource` exports them as
/// `ncs_reactor_*` series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Event-loop workers (shards) — O(cores), fixed at construction.
    pub workers: usize,
    /// Live connection tasks (one per attached connection;
    /// accept tasks are not counted).
    pub endpoints: u64,
    /// Worker loop iterations (timer sweeps + inbox waits).
    pub polls: u64,
    /// Task wakeups delivered (waker calls that actually scheduled or
    /// dirtied a task; coalesced duplicates are not counted).
    pub wakeups: u64,
    /// Individual task polls executed.
    pub task_runs: u64,
    /// Timer deadlines that fired.
    pub timer_fires: u64,
    /// Readiness reports delivered to a live registration (SCI sockets
    /// and listeners), by a shard from its own `epoll(7)` set.
    pub fd_events: u64,
    /// Waits of a shard in its `epoll(7)` set — in `epoll_pwait2` under
    /// the kernel-level package, through its green scheduler's poll under
    /// the user-level one — that returned at least one readiness report:
    /// once per batch of reports. A timeout, an interrupted wait or a ring
    /// of the set's bell adds none, and a task re-arming its socket wakes
    /// nobody.
    pub poller_wakes: u64,
    /// Times a task was observed looping `Again` long enough to be called
    /// stalled (diagnostic: a healthy run stays at 0).
    pub stalled_tasks: u64,
    /// Waits an event loop bounded by a deadline less than one timer tick
    /// (4 ms) away. Such parks cost several microseconds more than long
    /// ones; only deadlines armed less than two ticks ahead (transmit
    /// retries, rate pacing, the end of a shutdown) should cause any.
    pub short_parks: u64,
    /// Tasks a shutting-down event loop still held when the bound on its
    /// drain (a closing connection's linger) had passed, and dropped
    /// unpolled. A healthy node shutdown leaves none.
    pub tasks_left_at_shutdown: u64,
    /// Always 0. The reactor once lent threads to blocking work (the
    /// collective progress runner) and counted them here; nothing blocks
    /// beside the event loops any more. The field and its exported series
    /// stay because the benchmark reads them (`reactor.blocking_spawned`).
    pub blocking_spawned: u64,
}

impl fmt::Display for ReactorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reactor: {} workers, {} endpoints | {} polls, {} wakeups, {} task runs, \
             {} timers, {} fd events | {} stalled, {} short parks, {} left at shutdown",
            self.workers,
            self.endpoints,
            self.polls,
            self.wakeups,
            self.task_runs,
            self.timer_fires,
            self.fd_events,
            self.stalled_tasks,
            self.short_parks,
            self.tasks_left_at_shutdown,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_stats_display() {
        let s = ReactorStats {
            workers: 4,
            endpoints: 1000,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("4 workers"));
        assert!(text.contains("1000 endpoints"));
    }

    #[test]
    fn counters_snapshot() {
        let c = ConnCounters::default();
        c.packets_sent.add(5);
        c.retransmissions.add(2);
        let s = c.snapshot();
        assert_eq!(s.packets_sent, 5);
        assert_eq!(s.retransmissions, 2);
        assert!(s.to_string().contains("5tx"));
    }

    #[test]
    fn registered_counters_share_atomics_with_the_registry() {
        let r = Registry::new();
        let c = ConnCounters::registered(&r, 3, "rank1");
        c.messages_sent.add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("ncs_conn_messages_sent_total"), 7);
        let fam = snap.family("ncs_conn_messages_sent_total").unwrap();
        assert!(fam.series[0]
            .labels
            .iter()
            .any(|(k, v)| k == "conn" && v == "3"));
        r.unregister_label("conn", "3");
        assert_eq!(
            r.snapshot().counter_total("ncs_conn_messages_sent_total"),
            0
        );
        // The detached handle keeps counting for ConnectionStats.
        c.messages_sent.inc();
        assert_eq!(c.snapshot().messages_sent, 8);
    }
}
