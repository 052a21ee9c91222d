//! ACI — the ATM Communication Interface: AAL5 virtual circuits over the
//! simulated ATM network.
//!
//! ACI connections are **unreliable**: a lost or corrupted cell discards the
//! whole AAL5 frame (surfaced only in [`AciConnection::frame_errors`] — the
//! receiving application simply never sees the frame, exactly like a real
//! native-ATM API). They are ordered and limited to 64 KB frames. This is
//! the interface NCS's flow and error control are designed for.
//!
//! The network runs on the threads that touch it ([`RealTimePump`]): a
//! send, a receive, a connect, an accept or a readiness check runs it up to
//! now. A frame or a release put in flight rings the far endpoint, whose
//! [`Connection::due`] is then the network's next observable event (a
//! signal, or a frame's last cell reaching a switch or a host) until it
//! arrives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use atm_sim::{
    AtmError, ConnId, DeliverySink, NetEvent, Network, NodeId, PumpConfig, QosParams, RealTimePump,
    SetupTicket,
};
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;

use crate::iface::{
    send_each, wait_on_wire, Capabilities, Connection, Inbox, Readiness, TransportError, Waker,
};

/// Largest AAL5 frame.
pub const MAX_FRAME: usize = atm_sim::aal5::MAX_FRAME;

/// Inbound state of one ACI connection endpoint: its stream ends when
/// the VC is released.
#[derive(Debug)]
struct ConnBox {
    frames: Inbox,
    frame_errors: AtomicU64,
    /// Frames and a release put in flight toward this endpoint and not yet
    /// arrived — more, never fewer: a lost cell can merge two frames into
    /// one failure.
    expecting: AtomicU64,
    /// The far endpoint's box, once the VC is up.
    peer: OnceLock<Weak<ConnBox>>,
}

impl ConnBox {
    fn new() -> Arc<Self> {
        Arc::new(ConnBox {
            frames: Inbox::new(Mailbox::unbounded()),
            frame_errors: AtomicU64::new(0),
            expecting: AtomicU64::new(0),
            peer: OnceLock::new(),
        })
    }

    /// One frame or release arrived: the count goes down, and stays at
    /// zero where it arrived before the sender counted it.
    fn arrived(&self) {
        let down = |n: u64| Some(n.saturating_sub(1));
        let _ = self
            .expecting
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, down);
    }
}

/// An incoming VC waiting to be accepted.
#[derive(Debug)]
struct Incoming {
    conn: ConnId,
    peer: NodeId,
}

#[derive(Debug, Default)]
struct HostReg {
    incoming: Mailbox<Incoming>,
    conns: Mutex<HashMap<ConnId, Arc<ConnBox>>>,
}

/// Where a VC set-up's new endpoint is handed over: its id and its box.
type Setup = Arc<Mailbox<(ConnId, Arc<ConnBox>)>>;

/// Shared state dispatching pump events to per-connection queues.
#[derive(Debug, Default)]
struct Registry {
    hosts: Mutex<HashMap<NodeId, Arc<HostReg>>>,
    /// Where each VC set-up's new endpoint is handed to its `connect`,
    /// made by whichever of the two comes first.
    setups: Mutex<HashMap<SetupTicket, Setup>>,
}

impl Registry {
    fn host(&self, id: NodeId) -> Arc<HostReg> {
        Arc::clone(
            self.hosts
                .lock()
                .entry(id)
                .or_insert_with(|| Arc::new(HostReg::default())),
        )
    }

    fn setup(&self, ticket: SetupTicket) -> Setup {
        Arc::clone(self.setups.lock().entry(ticket).or_default())
    }
}

impl DeliverySink for Registry {
    fn deliver(&self, event: NetEvent) {
        match event {
            NetEvent::Frame {
                host, conn, frame, ..
            } => {
                let reg = self.host(host);
                let boxes = reg.conns.lock();
                if let Some(b) = boxes.get(&conn) {
                    b.arrived();
                    b.frames.queue.send(frame);
                }
            }
            NetEvent::FrameError { host, conn, .. } => {
                let reg = self.host(host);
                let boxes = reg.conns.lock();
                if let Some(b) = boxes.get(&conn) {
                    b.arrived();
                    b.frame_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            NetEvent::IncomingVc {
                host, conn, peer, ..
            } => {
                let reg = self.host(host);
                reg.conns.lock().insert(conn, ConnBox::new());
                reg.incoming.send(Incoming { conn, peer });
            }
            NetEvent::VcEstablished {
                ticket,
                host,
                conn,
                peer,
                peer_conn,
                ..
            } => {
                let boxed = ConnBox::new();
                if let Some(far) = self.host(peer).conns.lock().get(&peer_conn) {
                    let _ = boxed.peer.set(Arc::downgrade(far));
                    let _ = far.peer.set(Arc::downgrade(&boxed));
                }
                self.host(host)
                    .conns
                    .lock()
                    .insert(conn, Arc::clone(&boxed));
                self.setup(ticket).send((conn, boxed));
            }
            NetEvent::VcReleased { host, conn, .. } => {
                let reg = self.host(host);
                let boxes = reg.conns.lock();
                if let Some(b) = boxes.get(&conn) {
                    b.arrived();
                    b.frames.end();
                }
            }
        }
    }
}

/// The ATM fabric: owns the real-time pump and dispatches its events.
/// Obtain per-host [`AciDevice`]s via [`AciFabric::device`].
#[derive(Debug)]
pub struct AciFabric {
    pump: Arc<RealTimePump>,
    registry: Arc<Registry>,
}

impl AciFabric {
    /// Starts the fabric over a built [`Network`].
    pub fn start(net: Network, config: PumpConfig) -> Arc<Self> {
        let pump = RealTimePump::start(net, config);
        let registry = Arc::new(Registry::default());
        pump.set_sink(Arc::clone(&registry) as Arc<dyn DeliverySink>);
        Arc::new(AciFabric { pump, registry })
    }

    /// The adapter of host `name`.
    ///
    /// # Errors
    ///
    /// Fails if no such host exists.
    pub fn device(self: &Arc<Self>, name: &str) -> Result<AciDevice, TransportError> {
        let host = self
            .pump
            .node_id(name)
            .ok_or_else(|| TransportError::Io(format!("unknown ATM host '{name}'")))?;
        // Materialise the registry entry so incoming VCs are queued even
        // before the first accept.
        let _ = self.registry.host(host);
        Ok(AciDevice {
            fabric: Arc::clone(self),
            host,
        })
    }

    /// Network statistics (cells sent/lost, frames delivered/failed, ...).
    pub fn stats(&self) -> atm_sim::NetStats {
        self.pump.stats()
    }

    /// Stops delivering: what the network produces from now on goes
    /// nowhere.
    pub fn shutdown(&self) {
        self.pump.shutdown();
    }
}

/// A host's ATM adapter: connect to peers or accept incoming VCs.
#[derive(Debug)]
pub struct AciDevice {
    fabric: Arc<AciFabric>,
    host: NodeId,
}

impl AciDevice {
    /// Opens a VC to `peer` with the given QoS, blocking until signaling
    /// completes (10 s limit).
    ///
    /// # Errors
    ///
    /// Fails on unknown peers, unroutable topologies or signaling timeout.
    pub fn connect(&self, peer: &str, qos: QosParams) -> Result<AciConnection, TransportError> {
        let pump = &self.fabric.pump;
        let unknown = || TransportError::Io(format!("unknown ATM host '{peer}'"));
        let peer_id = pump.node_id(peer).ok_or_else(unknown)?;
        let ticket = pump.open_vc(self.host, peer_id, qos).map_err(map_atm)?;
        // Signaling runs on this thread's touches of the network.
        let setup = self.fabric.registry.setup(ticket);
        let take = |wait| setup.recv_timeout(wait).ok();
        let up = wait_on_wire(Duration::from_secs(10), || pump.advance(), take);
        self.fabric.registry.setups.lock().remove(&ticket);
        let (conn, inbound) = up.ok_or(TransportError::Timeout)?;
        Ok(AciConnection {
            fabric: Arc::clone(&self.fabric),
            host: self.host,
            conn,
            inbound,
            label: format!("aci:{peer}"),
        })
    }

    /// The endpoint of an incoming VC taken off the host's queue.
    fn answer(&self, reg: &HostReg, inc: &Incoming) -> AciConnection {
        let boxed = reg
            .conns
            .lock()
            .get(&inc.conn)
            .cloned()
            .expect("incoming conn has a box");
        AciConnection {
            fabric: Arc::clone(&self.fabric),
            host: self.host,
            conn: inc.conn,
            inbound: boxed,
            label: format!("aci:node-{}", inc.peer.as_raw()),
        }
    }

    /// Accepts the next incoming VC, blocking up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if none arrived.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<AciConnection, TransportError> {
        let reg = self.fabric.registry.host(self.host);
        let pump = &self.fabric.pump;
        let take = |wait| reg.incoming.recv_timeout(wait).ok();
        let inc = wait_on_wire(timeout, || pump.advance(), take).ok_or(TransportError::Timeout)?;
        Ok(self.answer(&reg, &inc))
    }

    /// Accepts an incoming VC if one is waiting. Never blocks.
    pub fn try_accept(&self) -> Option<AciConnection> {
        self.fabric.pump.advance();
        let reg = self.fabric.registry.host(self.host);
        let inc = reg.incoming.try_recv()?;
        Some(self.answer(&reg, &inc))
    }

    /// Installs (or with `None`, removes) the callback fired whenever an
    /// incoming VC is queued for this host — one slot per host, whichever
    /// of its devices sets it.
    pub fn set_accept_waker(&self, waker: Option<Waker>) {
        let reg = self.fabric.registry.host(self.host);
        reg.incoming.set_notify(waker);
    }

    /// Accepts the next incoming VC (60 s limit).
    ///
    /// # Errors
    ///
    /// As [`AciDevice::accept_timeout`].
    pub fn accept(&self) -> Result<AciConnection, TransportError> {
        self.accept_timeout(Duration::from_secs(60))
    }
}

fn map_atm(e: AtmError) -> TransportError {
    TransportError::Io(e.to_string())
}

/// One endpoint of an AAL5 virtual circuit.
#[derive(Debug)]
pub struct AciConnection {
    fabric: Arc<AciFabric>,
    host: NodeId,
    conn: ConnId,
    inbound: Arc<ConnBox>,
    label: String,
}

impl AciConnection {
    /// Frames lost to cell loss/corruption on this connection (receiver
    /// side). NCS's error control turns these into retransmissions.
    pub fn frame_errors(&self) -> u64 {
        self.inbound.frame_errors.load(Ordering::Relaxed)
    }

    /// Per-connection traffic statistics from the network.
    pub fn stats(&self) -> Option<atm_sim::ConnStats> {
        self.fabric.pump.conn_stats(self.host, self.conn)
    }

    /// Counts `n` frames, or a release, in flight toward the far endpoint,
    /// and rings it: a waiter there takes the network's next observable
    /// event as its deadline.
    fn put_in_flight(&self, n: u64) {
        if let Some(peer) = self.inbound.peer.get().and_then(Weak::upgrade) {
            peer.expecting.fetch_add(n, Ordering::AcqRel);
            peer.frames.ring();
        }
    }
}

impl Connection for AciConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "ACI",
            overrun_ring: None,
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        // Frame by frame: cells are the ATM network's transmission unit, so
        // there is no sender-side buffer to coalesce admissions into.
        let sent = send_each(frames, MAX_FRAME, |frame, _| {
            if self.inbound.frames.has_ended() {
                return Err(TransportError::Closed);
            }
            self.fabric
                .pump
                .send_frame(self.host, self.conn, frame.to_vec())
                .map(|()| true)
                .map_err(|e| match e {
                    AtmError::NotActive(_) => TransportError::Closed,
                    other => map_atm(other),
                })
        })?;
        self.put_in_flight(sent as u64);
        Ok(sent)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.inbound.frames.recv_timeout(timeout, || self.due())
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.fabric.pump.advance();
        self.inbound.frames.try_recv()
    }

    fn due(&self) -> Option<Instant> {
        let expecting = self.inbound.expecting.load(Ordering::Acquire) > 0;
        expecting.then(|| self.fabric.pump.advance()).flatten()
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.inbound.frames.queue.set_notify(waker);
    }

    fn close(&self) {
        self.inbound.frames.end();
        if self.fabric.pump.close_vc(self.host, self.conn).is_ok() {
            self.put_in_flight(1);
        }
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_sim::{LinkSpec, NetworkBuilder};

    fn fabric() -> Arc<AciFabric> {
        let net = NetworkBuilder::new()
            .host("a")
            .host("b")
            .switch("sw")
            .link("a", "sw", LinkSpec::oc3())
            .link("b", "sw", LinkSpec::oc3())
            .build()
            .unwrap();
        AciFabric::start(net, PumpConfig::default())
    }

    #[test]
    fn connect_accept_and_exchange() {
        let fab = fabric();
        let dev_a = fab.device("a").unwrap();
        let dev_b = fab.device("b").unwrap();
        let t = std::thread::spawn(move || dev_b.accept().unwrap());
        let conn_a = dev_a.connect("b", QosParams::unspecified()).unwrap();
        let conn_b = t.join().unwrap();

        conn_a.send(b"over atm").unwrap();
        assert_eq!(conn_b.recv().unwrap(), b"over atm");
        conn_b.send(b"echoed").unwrap();
        assert_eq!(conn_a.recv().unwrap(), b"echoed");
        fab.shutdown();
    }

    #[test]
    fn batched_send_and_recv_many_preserve_order() {
        let fab = fabric();
        let dev_a = fab.device("a").unwrap();
        let dev_b = fab.device("b").unwrap();
        let t = std::thread::spawn(move || dev_b.accept().unwrap());
        let conn_a = dev_a.connect("b", QosParams::unspecified()).unwrap();
        let conn_b = t.join().unwrap();
        let frames: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 100]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        assert_eq!(conn_a.send_batch(&refs).unwrap(), 5);
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(conn_b.recv_many(8, Duration::from_secs(5)).unwrap());
        }
        assert_eq!(got, frames);
        fab.shutdown();
    }

    #[test]
    fn unknown_host_fails() {
        let fab = fabric();
        assert!(fab.device("ghost").is_err());
        let dev = fab.device("a").unwrap();
        assert!(dev.connect("ghost", QosParams::unspecified()).is_err());
        fab.shutdown();
    }

    #[test]
    fn accept_timeout_expires() {
        let fab = fabric();
        let dev = fab.device("a").unwrap();
        assert!(matches!(
            dev.accept_timeout(Duration::from_millis(50)),
            Err(TransportError::Timeout)
        ));
        fab.shutdown();
    }

    #[test]
    fn caps_are_unreliable_ordered_64k() {
        let fab = fabric();
        let dev_a = fab.device("a").unwrap();
        let dev_b = fab.device("b").unwrap();
        let t = std::thread::spawn(move || dev_b.accept().unwrap());
        let conn = dev_a.connect("b", QosParams::unspecified()).unwrap();
        t.join().unwrap();
        let caps = conn.caps();
        assert_eq!(caps.overrun_ring, None);
        assert!(caps.ordered);
        assert_eq!(caps.max_frame, 65_535);
        fab.shutdown();
    }

    #[test]
    fn close_releases_vc() {
        let fab = fabric();
        let dev_a = fab.device("a").unwrap();
        let dev_b = fab.device("b").unwrap();
        let t = std::thread::spawn(move || dev_b.accept().unwrap());
        let conn_a = dev_a.connect("b", QosParams::unspecified()).unwrap();
        let conn_b = t.join().unwrap();
        conn_a.close();
        assert!(conn_a.send(b"x").is_err());
        // The peer eventually observes the release.
        let mut released = false;
        for _ in 0..100 {
            match conn_b.try_recv() {
                Err(TransportError::Closed) => {
                    released = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(released, "peer never saw the release");
        fab.shutdown();
    }
}
