//! Peer links: how an NCS node reaches one named peer.
//!
//! A [`PeerLink`] can open new duplex channels to the peer and hand over
//! the channels the peer opened; each NCS connection is one such channel,
//! carrying its data one way and its feedback and connection control the
//! other. One implementation exists per communication interface,
//! realising the paper's Figure 3 (clusters wired with different
//! interfaces).
//!
//! Opening may block (TCP connect retries, ATM signaling) and stays with
//! the thread that called [`crate::NcsNode::connect`]. Accepting never
//! does: the node's accept task — reactor work like everything else —
//! takes channels with [`PeerLink::try_accept_channel`] and is told when
//! to look through [`PeerLink::watch_accepts`]. Incoming channels queue
//! in one of two places: a mailbox (HPI, PIPE, SIM, ACI) that fires a
//! waker, or a listening socket (SCI) the reactor watches in an
//! `epoll(7)` set.

use std::sync::Arc;
use std::time::Duration;

use ncs_threads::sync::Mailbox;
use ncs_transport::{aci, hpi, pipe, sci, sim, Connection, Readiness, TransportError, Waker};

/// A bidirectional channel factory towards one peer node.
pub trait PeerLink: Send + Sync + std::fmt::Debug {
    /// Opens a fresh duplex channel to the peer. May block.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError>;

    /// Takes the next channel the peer (or, for shared listeners, *any*
    /// peer) opened towards this node, `Ok(None)` when none is waiting.
    /// Never blocks.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError>;

    /// Subscribes to "a channel may be waiting" and says how that shows:
    /// [`Readiness::Waker`] — `waker` is called, spuriously at times — or
    /// [`Readiness::Fd`] — the descriptor polls readable, and `waker` is
    /// not used. `None` unsubscribes. Links that share their accept queue
    /// (one listener, one ATM adapter) share its one waker slot.
    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness;

    /// Interface family name ("HPI", "SCI", "ACI", "PIPE").
    fn interface(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// The accept half of the in-process links
// ---------------------------------------------------------------------------

/// Where the channels of an in-process link pair wait to be accepted:
/// opening makes a pair of endpoints and queues the far one for the
/// partner.
#[derive(Debug)]
struct ChannelQueue {
    /// Channels the partner opened towards us.
    inbox: Arc<Mailbox<Box<dyn Connection>>>,
    /// The partner's inbox, where our opens land.
    partner: Arc<Mailbox<Box<dyn Connection>>>,
}

impl ChannelQueue {
    fn pair() -> (Self, Self) {
        let a_in: Arc<Mailbox<Box<dyn Connection>>> = Arc::new(Mailbox::unbounded());
        let b_in: Arc<Mailbox<Box<dyn Connection>>> = Arc::new(Mailbox::unbounded());
        (
            ChannelQueue {
                inbox: Arc::clone(&a_in),
                partner: Arc::clone(&b_in),
            },
            ChannelQueue {
                inbox: b_in,
                partner: a_in,
            },
        )
    }

    fn open(
        &self,
        (mine, theirs): (impl Connection + 'static, impl Connection + 'static),
    ) -> Result<Box<dyn Connection>, TransportError> {
        self.partner.send(Box::new(theirs));
        Ok(Box::new(mine))
    }

    fn try_accept(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        Ok(self.inbox.try_recv())
    }

    fn watch(&self, waker: Option<Waker>) -> Readiness {
        self.inbox.set_notify(waker);
        Readiness::Waker
    }
}

// ---------------------------------------------------------------------------
// HPI
// ---------------------------------------------------------------------------

/// In-process HPI link: channels are shared-ring pairs.
#[derive(Debug)]
pub struct HpiLink {
    queue: ChannelQueue,
    ring_capacity: usize,
}

/// Creates both ends of an in-process HPI link.
#[derive(Debug)]
pub struct HpiLinkPair;

impl HpiLinkPair {
    /// Creates a connected pair of HPI links with default ring capacity.
    pub fn create() -> (Arc<HpiLink>, Arc<HpiLink>) {
        Self::with_capacity(hpi::DEFAULT_RING)
    }

    /// Creates a pair whose channels use `ring_capacity`-frame rings.
    pub fn with_capacity(ring_capacity: usize) -> (Arc<HpiLink>, Arc<HpiLink>) {
        let (a, b) = ChannelQueue::pair();
        let link = |queue| HpiLink {
            queue,
            ring_capacity,
        };
        (Arc::new(link(a)), Arc::new(link(b)))
    }
}

impl PeerLink for HpiLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        self.queue.open(hpi::pair(self.ring_capacity))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        self.queue.try_accept()
    }

    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness {
        self.queue.watch(waker)
    }

    fn interface(&self) -> &'static str {
        "HPI"
    }
}

// ---------------------------------------------------------------------------
// PIPE
// ---------------------------------------------------------------------------

/// In-process modelled-socket link (see [`ncs_transport::pipe`]).
#[derive(Debug)]
pub struct PipeLink {
    queue: ChannelQueue,
    config: pipe::PipeConfig,
    local_model: Option<pipe::EndpointModel>,
    remote_model: Option<pipe::EndpointModel>,
}

/// Creates both ends of a modelled-socket link.
#[derive(Debug)]
pub struct PipeLinkPair;

impl PipeLinkPair {
    /// Creates a pair with the given pipe configuration and optional
    /// per-endpoint platform models (side `a` first).
    pub fn create(
        config: pipe::PipeConfig,
        model_a: Option<pipe::EndpointModel>,
        model_b: Option<pipe::EndpointModel>,
    ) -> (Arc<PipeLink>, Arc<PipeLink>) {
        let (a, b) = ChannelQueue::pair();
        (
            Arc::new(PipeLink {
                queue: a,
                config: config.clone(),
                local_model: model_a.clone(),
                remote_model: model_b.clone(),
            }),
            Arc::new(PipeLink {
                queue: b,
                config,
                local_model: model_b,
                remote_model: model_a,
            }),
        )
    }
}

impl PeerLink for PipeLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        self.queue.open(pipe::pair_with_models(
            self.config.clone(),
            self.local_model.clone(),
            self.remote_model.clone(),
        ))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        self.queue.try_accept()
    }

    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness {
        self.queue.watch(waker)
    }

    fn interface(&self) -> &'static str {
        "PIPE"
    }
}

// ---------------------------------------------------------------------------
// ACI
// ---------------------------------------------------------------------------

/// ATM link: channels are AAL5 virtual circuits through an
/// [`aci::AciFabric`].
#[derive(Debug)]
pub struct AciLink {
    device: Arc<aci::AciDevice>,
    peer: String,
    qos: atm_sim::QosParams,
}

impl AciLink {
    /// A link from `device`'s host to `peer`, opening VCs with `qos`.
    pub fn new(device: Arc<aci::AciDevice>, peer: &str, qos: atm_sim::QosParams) -> Arc<Self> {
        Arc::new(AciLink {
            device,
            peer: peer.to_owned(),
            qos,
        })
    }
}

impl PeerLink for AciLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        Ok(Box::new(self.device.connect(&self.peer, self.qos)?))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        Ok(self.device.try_accept().map(|c| Box::new(c) as _))
    }

    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness {
        self.device.set_accept_waker(waker);
        Readiness::Waker
    }

    fn interface(&self) -> &'static str {
        "ACI"
    }
}

// ---------------------------------------------------------------------------
// SIM
// ---------------------------------------------------------------------------

/// Simulated-fabric link: channels are [`sim::SimNet`] endpoint pairs,
/// modelled wires that move when touched. Every channel of the link
/// answers to the same chaos knobs ([`SimLink::set_outbound_up`],
/// [`SimLink::set_outbound_policy`]) — cut one side's outbound direction
/// and the peer sees a partition on every connection, data and feedback
/// alike.
#[derive(Debug)]
pub struct SimLink {
    net: Arc<sim::SimNet>,
    queue: ChannelQueue,
    policy_out: sim::LinkPolicy,
    policy_back: sim::LinkPolicy,
    /// 0 for the first endpoint of the pair, 1 for the second: which list
    /// of `opened` holds this side's outbound directions.
    side: usize,
    /// Each side's outbound direction on every channel opened through
    /// either side. Shared by both ends so chaos control sees channels
    /// whichever side opened them.
    opened: Arc<parking_lot::Mutex<[Vec<sim::Outbound>; 2]>>,
}

/// Creates both ends of a simulated link.
#[derive(Debug)]
pub struct SimLinkPair;

impl SimLinkPair {
    /// Creates a connected pair of links through `net`. `policy_ab` shapes
    /// frames from the first returned link to the second; `policy_ba` the
    /// reverse. Every channel either side opens inherits these policies.
    pub fn create(
        net: &Arc<sim::SimNet>,
        policy_ab: sim::LinkPolicy,
        policy_ba: sim::LinkPolicy,
    ) -> (Arc<SimLink>, Arc<SimLink>) {
        let (a, b) = ChannelQueue::pair();
        let opened = Arc::new(parking_lot::Mutex::new([Vec::new(), Vec::new()]));
        (
            Arc::new(SimLink {
                net: Arc::clone(net),
                queue: a,
                policy_out: policy_ab.clone(),
                policy_back: policy_ba.clone(),
                side: 0,
                opened: Arc::clone(&opened),
            }),
            Arc::new(SimLink {
                net: Arc::clone(net),
                queue: b,
                policy_out: policy_ba,
                policy_back: policy_ab,
                side: 1,
                opened,
            }),
        )
    }
}

impl SimLink {
    /// Raises or black-holes this side's outbound direction on every
    /// channel of the link opened so far (a later channel takes the
    /// link's policies; call again to cover it). The partition /
    /// flapping-peer primitive.
    pub fn set_outbound_up(&self, up: bool) {
        for dir in &self.opened.lock()[self.side] {
            dir.set_up(up);
        }
    }

    /// Replaces the shaping policy of this side's outbound direction on
    /// every existing channel (the slow-link primitive).
    pub fn set_outbound_policy(&self, policy: sim::LinkPolicy) {
        for dir in &self.opened.lock()[self.side] {
            dir.set_policy(policy.clone());
        }
    }
}

impl PeerLink for SimLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (mine, theirs) = self
            .net
            .pair(self.policy_out.clone(), self.policy_back.clone());
        let mut opened = self.opened.lock();
        opened[self.side].push(mine.outbound());
        opened[1 - self.side].push(theirs.outbound());
        drop(opened);
        self.queue.open((mine, theirs))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        self.queue.try_accept()
    }

    fn watch_accepts(&self, waker: Option<Waker>) -> Readiness {
        self.queue.watch(waker)
    }

    fn interface(&self) -> &'static str {
        "SIM"
    }
}

// ---------------------------------------------------------------------------
// SCI
// ---------------------------------------------------------------------------

/// TCP link: opens channels by connecting to the peer's listener; accepts
/// from this node's own (shared) listener. Peer attribution of accepted
/// channels comes from the NCS hello frame, so sharing one listener across
/// peers is safe.
#[derive(Debug)]
pub struct SciLink {
    peer_addr: std::net::SocketAddr,
    listener: Arc<sci::SciListener>,
    /// Retry budget for dialing the peer's listener (cluster ranks start
    /// concurrently; the peer may not be listening *yet*).
    connect_timeout: Duration,
}

impl SciLink {
    /// A link towards the NCS node listening at `peer_addr`, accepting
    /// inbound channels on `listener`. Dials with the default
    /// [`sci::CONNECT_RETRY_TIMEOUT`] retry budget.
    pub fn new(peer_addr: std::net::SocketAddr, listener: Arc<sci::SciListener>) -> Arc<Self> {
        Self::with_connect_timeout(peer_addr, listener, sci::CONNECT_RETRY_TIMEOUT)
    }

    /// [`SciLink::new`] with an explicit retry budget for dialing the
    /// peer (`Duration::ZERO` for a single, fail-fast attempt).
    pub fn with_connect_timeout(
        peer_addr: std::net::SocketAddr,
        listener: Arc<sci::SciListener>,
        connect_timeout: Duration,
    ) -> Arc<Self> {
        Arc::new(SciLink {
            peer_addr,
            listener,
            connect_timeout,
        })
    }
}

impl PeerLink for SciLink {
    fn open_channel(&self) -> Result<Box<dyn Connection>, TransportError> {
        // Bounded retry/backoff: a cluster peer may still be racing
        // through its own startup when we dial (see sci::connect_retry).
        Ok(Box::new(sci::connect_retry(
            self.peer_addr,
            self.connect_timeout,
        )?))
    }

    fn try_accept_channel(&self) -> Result<Option<Box<dyn Connection>>, TransportError> {
        Ok(self.listener.try_accept()?.map(|conn| Box::new(conn) as _))
    }

    fn watch_accepts(&self, _waker: Option<Waker>) -> Readiness {
        self.listener.readiness()
    }

    fn interface(&self) -> &'static str {
        "SCI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpi_link_channels_connect_both_ways() {
        let (a, b) = HpiLinkPair::create();
        let ch_a = a.open_channel().unwrap();
        let ch_b = b.try_accept_channel().unwrap().expect("a channel waits");
        ch_a.send(b"x").unwrap();
        assert_eq!(ch_b.recv().unwrap(), b"x");
        ch_b.send(b"y").unwrap();
        assert_eq!(ch_a.recv().unwrap(), b"y");
        assert_eq!(a.interface(), "HPI");
    }

    #[test]
    fn hpi_accept_times_out_when_nothing_opened() {
        let (a, _b) = HpiLinkPair::create();
        assert!(matches!(a.try_accept_channel(), Ok(None)));
    }

    #[test]
    fn pipe_link_round_trip() {
        let (a, b) = PipeLinkPair::create(pipe::PipeConfig::default(), None, None);
        let ch_a = a.open_channel().unwrap();
        let ch_b = b.try_accept_channel().unwrap().expect("a channel waits");
        ch_a.send(b"ping").unwrap();
        assert_eq!(ch_b.recv().unwrap(), b"ping");
        assert_eq!(b.interface(), "PIPE");
    }

    #[test]
    fn sim_link_round_trip_over_a_modelled_wire() {
        let net = sim::SimNet::new(11);
        let (a, b) = SimLinkPair::create(&net, sim::LinkPolicy::lan(), sim::LinkPolicy::lan());
        let ch_a = a.open_channel().unwrap();
        let ch_b = b.try_accept_channel().unwrap().expect("a channel waits");
        ch_a.send(b"ping").unwrap();
        // Nothing arrives before its latency; the receive waits it out.
        assert_eq!(ch_b.try_recv(), Ok(None));
        assert_eq!(
            ch_b.recv_timeout(Duration::from_secs(1)),
            Ok(b"ping".to_vec())
        );
        assert_eq!(a.interface(), "SIM");
    }

    #[test]
    fn sim_link_outbound_cut_is_one_directional() {
        let net = sim::SimNet::new(11);
        let (a, b) = SimLinkPair::create(&net, sim::LinkPolicy::ideal(), sim::LinkPolicy::ideal());
        let ch_a = a.open_channel().unwrap();
        let ch_b = b.try_accept_channel().unwrap().expect("a channel waits");
        // A channel b opened is cut on a's side too.
        let ch_b2 = b.open_channel().unwrap();
        let ch_a2 = a.try_accept_channel().unwrap().expect("a channel waits");
        a.set_outbound_up(false);
        ch_a.send(b"lost").unwrap();
        ch_a2.send(b"lost").unwrap();
        ch_b.send(b"back").unwrap();
        assert_eq!(ch_b.try_recv(), Ok(None));
        assert_eq!(ch_b2.try_recv(), Ok(None));
        assert_eq!(ch_a.try_recv(), Ok(Some(b"back".to_vec())));
        assert_eq!(net.dropped(), 2);
        // Heal: new frames flow again.
        a.set_outbound_up(true);
        ch_a.send(b"healed").unwrap();
        assert_eq!(ch_b.try_recv(), Ok(Some(b"healed".to_vec())));
    }

    #[test]
    fn multiple_channels_arrive_in_order() {
        let (a, b) = HpiLinkPair::create();
        let c1 = a.open_channel().unwrap();
        let c2 = a.open_channel().unwrap();
        c1.send(b"first").unwrap();
        c2.send(b"second").unwrap();
        let d1 = b.try_accept_channel().unwrap().expect("a channel waits");
        let d2 = b.try_accept_channel().unwrap().expect("a channel waits");
        assert_eq!(d1.recv().unwrap(), b"first");
        assert_eq!(d2.recv().unwrap(), b"second");
    }
}
