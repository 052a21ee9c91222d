//! Real-time pump: runs the deterministic network against the wall clock
//! so OS threads (the NCS runtime) can use it as a live network.
//!
//! Virtual time `t` maps to wall time `origin + t * scale`. A scale of 1.0
//! runs the network in real time; smaller values compress the modelled 1998
//! delays so long experiments finish quickly (results are reported in
//! *model* time regardless).
//!
//! The pump owns no thread: whoever touches the network — a submission,
//! or [`RealTimePump::advance`] from a receive, a connect, an accept or a
//! readiness check — runs it up to the wall clock's virtual now and learns
//! when its next observable event falls due. A waiter on the network holds
//! that instant as its deadline.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::engine::NetEvent;
use crate::network::{AtmError, ConnId, Network, NodeId, QosParams, SetupTicket};
use crate::time::SimTime;

/// Receiver of network events in pump mode. Implementations must be quick
/// and non-blocking (called by whichever thread runs the network, with the
/// network locked).
pub trait DeliverySink: Send + Sync {
    /// Called for every observable network event, in virtual-time order.
    fn deliver(&self, event: NetEvent);
}

/// Pump configuration.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Wall seconds per virtual second. 1.0 = real time; 0.1 runs the model
    /// 10x faster than real time.
    pub time_scale: f64,
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig { time_scale: 1.0 }
    }
}

impl PumpConfig {
    /// A pump running `x`-times faster than real time.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite and positive.
    pub fn speedup(x: f64) -> Self {
        assert!(x.is_finite() && x > 0.0, "speedup must be positive");
        PumpConfig {
            time_scale: 1.0 / x,
        }
    }
}

/// Runs a [`Network`] in real time, on the threads that touch it.
///
/// All mutating operations lock the network, run it up to the *current
/// virtual time* and schedule their work there; deliveries flow out
/// through the installed [`DeliverySink`].
pub struct RealTimePump {
    net: Mutex<Network>,
    sink: Mutex<Option<Arc<dyn DeliverySink>>>,
    origin: Instant,
    scale: f64,
}

impl std::fmt::Debug for RealTimePump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealTimePump")
            .field("scale", &self.scale)
            .finish()
    }
}

impl RealTimePump {
    /// Starts the pump over `net`: virtual time zero is now.
    pub fn start(net: Network, config: PumpConfig) -> Arc<Self> {
        assert!(
            config.time_scale.is_finite() && config.time_scale > 0.0,
            "time scale must be positive"
        );
        Arc::new(RealTimePump {
            net: Mutex::new(net),
            sink: Mutex::new(None),
            origin: Instant::now(),
            scale: config.time_scale,
        })
    }

    /// Installs the delivery sink (replacing any previous one).
    pub fn set_sink(&self, sink: Arc<dyn DeliverySink>) {
        *self.sink.lock() = Some(sink);
    }

    /// Resolves a host name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.net.lock().node_id(name)
    }

    /// Runs the network up to the wall clock's virtual now, hands the
    /// events to the sink, and returns the wall instant at which the next
    /// pending event that can be observed falls due
    /// ([`Network::next_observable_time`]; `None`: nothing is in flight
    /// that anyone could see).
    pub fn advance(&self) -> Option<Instant> {
        let mut net = self.net.lock();
        self.run_to_now(&mut net);
        let next = net.next_observable_time()?;
        Some(self.origin + next.as_duration().mul_f64(self.scale))
    }

    /// Initiates VC setup; completion arrives at the sink as
    /// [`NetEvent::VcEstablished`].
    ///
    /// # Errors
    ///
    /// Synchronous failures as in [`Network::open_vc_ids`].
    pub fn open_vc(
        &self,
        origin: NodeId,
        dest: NodeId,
        qos: QosParams,
    ) -> Result<SetupTicket, AtmError> {
        let mut net = self.net.lock();
        self.run_to_now(&mut net);
        net.open_vc_ids(origin, dest, qos)
    }

    /// Submits a frame on an active connection.
    ///
    /// # Errors
    ///
    /// As [`Network::send_frame`].
    pub fn send_frame(&self, host: NodeId, conn: ConnId, frame: Vec<u8>) -> Result<(), AtmError> {
        let mut net = self.net.lock();
        self.run_to_now(&mut net);
        net.send_frame(host, conn, frame)
    }

    /// Tears down a connection.
    ///
    /// # Errors
    ///
    /// As [`Network::close_vc`].
    pub fn close_vc(&self, host: NodeId, conn: ConnId) -> Result<(), AtmError> {
        let mut net = self.net.lock();
        self.run_to_now(&mut net);
        net.close_vc(host, conn)
    }

    /// Network statistics snapshot.
    pub fn stats(&self) -> crate::stats::NetStats {
        self.net.lock().stats()
    }

    /// Per-connection statistics snapshot.
    pub fn conn_stats(&self, host: NodeId, conn: ConnId) -> Option<crate::stats::ConnStats> {
        self.net.lock().conn_stats(host, conn)
    }

    /// Stops delivering: events the network produces from now on go
    /// nowhere. Idempotent.
    pub fn shutdown(&self) {
        *self.sink.lock() = None;
    }

    /// Runs the network up to the wall clock before anything is injected,
    /// so submissions are stamped "now".
    ///
    /// Events are delivered to the sink *while the network lock is held* so
    /// that deliveries from concurrent callers reach the sink in
    /// virtual-time order. Sinks therefore MUST NOT call back into the pump
    /// (they should only move data into their own queues).
    fn run_to_now(&self, net: &mut Network) {
        let target = SimTime::ZERO + self.origin.elapsed().div_f64(self.scale);
        if net.now() >= target {
            return;
        }
        let events = net.run_until(target);
        if events.is_empty() {
            return;
        }
        if let Some(sink) = self.sink.lock().clone() {
            events.into_iter().for_each(|e| sink.deliver(e));
        }
    }
}
