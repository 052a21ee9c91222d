//! [`Session`]: one façade over every way of being a member of an NCS
//! world.
//!
//! The ROADMAP's north star demands one coherent surface for every
//! scenario. Before this module, a program written against
//! [`ClusterNode`] (multi-process, `ncs-launch`) could not run against an
//! in-process node world (tests, single-machine experiments) without
//! rewriting its plumbing. `Session` is the missing abstraction: rank
//! identity, world size, point-to-point connect/accept and the
//! collectives engine behind one trait, implemented by
//!
//! * [`ClusterNode`] — the multi-process world bootstrapped through
//!   `ncsd` rendezvous over real sockets; and
//! * [`LocalSession`] — one member of a [`LocalWorld`]: N in-process
//!   [`NcsNode`]s fully meshed over the HPI interface, one per
//!   application thread (or green thread — the world can run on either
//!   thread package).
//!
//! The same application body drives both:
//!
//! ```
//! use ncs_runtime::{LocalWorld, Session};
//! use ncs_collectives::ReduceOp;
//!
//! fn member(s: &impl Session) -> f64 {
//!     let group = s.collective_group(1).expect("group");
//!     group
//!         .allreduce(vec![s.rank() as f64], ReduceOp::Sum)
//!         .expect("allreduce")[0]
//! }
//!
//! let world = LocalWorld::create(3).expect("world");
//! let handles: Vec<_> = world
//!     .into_iter()
//!     .map(|s| std::thread::spawn(move || member(&s)))
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().unwrap(), 0.0 + 1.0 + 2.0);
//! }
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ncs_collectives::{CollectiveError, CollectiveGroup};
use ncs_core::link::{HpiLinkPair, PeerLink};
use ncs_core::{AcceptError, ConnectError, ConnectionConfig, NcsConnection, NcsNode};
use ncs_threads::ThreadPackage;

use crate::cluster::{rank_name, ClusterError, ClusterNode};

/// Errors from [`Session`] operations, unifying the backends' error
/// families.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// An invalid member rank (out of range, or this member itself).
    BadRank {
        /// The offending rank.
        rank: u32,
        /// World size.
        world: u32,
    },
    /// Establishing a connection failed.
    Connect(String),
    /// Accepting a connection failed.
    Accept(String),
    /// Building the collectives engine failed.
    Collective(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::BadRank { rank, world } => {
                write!(f, "rank {rank} is not a peer in a world of {world}")
            }
            SessionError::Connect(why) => write!(f, "session connect failed: {why}"),
            SessionError::Accept(why) => write!(f, "session accept failed: {why}"),
            SessionError::Collective(why) => write!(f, "session collectives failed: {why}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ConnectError> for SessionError {
    fn from(e: ConnectError) -> Self {
        SessionError::Connect(e.to_string())
    }
}

impl From<AcceptError> for SessionError {
    fn from(e: AcceptError) -> Self {
        SessionError::Accept(e.to_string())
    }
}

impl From<CollectiveError> for SessionError {
    fn from(e: CollectiveError) -> Self {
        SessionError::Collective(e.to_string())
    }
}

/// One member's handle on an NCS world, whatever backs it.
///
/// Implemented by [`ClusterNode`] (multi-process, over real sockets) and
/// [`LocalSession`] (in-process node world), so examples, tests and
/// applications can be written once and run in either mode — see the
/// module docs.
pub trait Session {
    /// This member's rank (`0..world_size`).
    fn rank(&self) -> u32;

    /// Number of members in the world.
    fn world_size(&self) -> u32;

    /// The underlying NCS node (pool statistics, thread package, raw
    /// primitives).
    fn node(&self) -> &NcsNode;

    /// Opens a fresh point-to-point connection to `peer` (which must call
    /// [`Session::accept`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::BadRank`] for an invalid peer, otherwise connect
    /// failures.
    fn connect(&self, peer: u32, cfg: ConnectionConfig) -> Result<NcsConnection, SessionError>;

    /// Accepts the next incoming point-to-point connection from any peer.
    ///
    /// # Errors
    ///
    /// [`SessionError::Accept`] on timeout or shutdown.
    fn accept(&self, timeout: Duration) -> Result<NcsConnection, SessionError>;

    /// Builds the collectives engine over the world's bootstrap links.
    ///
    /// The group's pump threads take ownership of those links' delivery
    /// queues: build at most one live group, and use
    /// [`Session::connect`] / [`Session::accept`] for point-to-point
    /// traffic alongside it.
    ///
    /// # Errors
    ///
    /// [`SessionError::Collective`] when the engine cannot start.
    fn collective_group(&self, id: u32) -> Result<CollectiveGroup, SessionError>;

    /// This member's full telemetry dump — the node's metrics snapshot
    /// plus every live connection's flight-recorder ring, as one JSON
    /// object (see [`NcsNode::telemetry`]). This is the per-rank payload
    /// `ncs-launch --telemetry` aggregates into a world snapshot.
    fn telemetry(&self) -> String {
        self.node().telemetry()
    }

    /// Shuts this member down (closes its connections, stops its NCS
    /// threads). Idempotent.
    fn shutdown(&self);
}

impl Session for ClusterNode {
    fn rank(&self) -> u32 {
        ClusterNode::rank(self)
    }

    fn world_size(&self) -> u32 {
        self.size()
    }

    fn node(&self) -> &NcsNode {
        ClusterNode::node(self)
    }

    fn connect(&self, peer: u32, cfg: ConnectionConfig) -> Result<NcsConnection, SessionError> {
        self.open_connection(peer, cfg).map_err(|e| match e {
            ClusterError::Config(_) => SessionError::BadRank {
                rank: peer,
                world: self.size(),
            },
            other => SessionError::Connect(other.to_string()),
        })
    }

    fn accept(&self, timeout: Duration) -> Result<NcsConnection, SessionError> {
        self.accept_connection(timeout)
            .map_err(|e| SessionError::Accept(e.to_string()))
    }

    fn collective_group(&self, id: u32) -> Result<CollectiveGroup, SessionError> {
        Ok(ClusterNode::collective_group(self, id)?)
    }

    fn shutdown(&self) {
        ClusterNode::shutdown(self);
    }
}

/// An in-process NCS world: the [`Session`] backend for tests,
/// single-machine experiments and any program that wants the cluster
/// programming model without processes.
///
/// [`LocalWorld::create`] builds N nodes, meshes them over the HPI
/// interface and pre-establishes one bootstrap connection per pair
/// (mirroring [`ClusterNode::bootstrap`]'s dial-up/accept-down wiring),
/// returning one [`LocalSession`] per member. Hand each session to its
/// own thread — or green thread; [`LocalWorld::with_package`] runs the
/// world's NCS threads on either package.
#[derive(Debug)]
pub struct LocalWorld;

impl LocalWorld {
    /// Builds an `n`-member in-process world on the kernel-level thread
    /// package.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when the mesh cannot be established.
    pub fn create(n: u32) -> Result<Vec<LocalSession>, SessionError> {
        Self::build(n, None)
    }

    /// [`LocalWorld::create`] with every node's NCS threads on `pkg`.
    ///
    /// # Errors
    ///
    /// As [`LocalWorld::create`].
    pub fn with_package(
        n: u32,
        pkg: Arc<dyn ThreadPackage>,
    ) -> Result<Vec<LocalSession>, SessionError> {
        Self::build(n, Some(pkg))
    }

    fn build(
        n: u32,
        pkg: Option<Arc<dyn ThreadPackage>>,
    ) -> Result<Vec<LocalSession>, SessionError> {
        if n == 0 {
            return Err(SessionError::Connect("world size must be positive".into()));
        }
        // All co-located members share one readiness reactor: the world
        // runs O(cores) event loops total, not O(cores) per rank.
        let reactor_pkg = pkg
            .clone()
            .unwrap_or_else(|| Arc::new(ncs_threads::KernelPackage::new()));
        let reactor = ncs_core::Reactor::with_default_shards(reactor_pkg);
        let nodes: Vec<NcsNode> = (0..n)
            .map(|r| {
                let mut b = NcsNode::builder(&rank_name(r))
                    .rank(r)
                    .reactor(Arc::clone(&reactor));
                if let Some(p) = &pkg {
                    b = b.thread_package(Arc::clone(p));
                }
                b.build()
            })
            .collect();
        mesh(nodes, |_, _| {
            // Re-tupled so that each end unsizes to `dyn PeerLink`.
            let (lo, hi) = HpiLinkPair::with_capacity(2048);
            (lo, hi)
        })
    }
}

/// Turns `nodes` (node `r` is rank `r`) into a world: a full mesh of
/// links — `link_pair(i, j)` makes the two ends joining ranks `i < j` —
/// and one bootstrap connection per pair, wired like the cluster runtime:
/// each member dials every higher rank and accepts from every lower one.
/// The bootstrap links use the §3.1 bypass, exactly as the SCI cluster
/// defaults do.
pub(crate) fn mesh(
    nodes: Vec<NcsNode>,
    mut link_pair: impl FnMut(u32, u32) -> (Arc<dyn PeerLink>, Arc<dyn PeerLink>),
) -> Result<Vec<LocalSession>, SessionError> {
    let n = nodes.len() as u32;
    let pairs = || (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
    for (i, j) in pairs() {
        let (li, lj) = link_pair(i, j);
        nodes[i as usize].attach_peer(&rank_name(j), li);
        nodes[j as usize].attach_peer(&rank_name(i), lj);
    }
    let mut links: Vec<HashMap<usize, NcsConnection>> = (0..n).map(|_| HashMap::new()).collect();
    for (i, j) in pairs() {
        let up = nodes[i as usize].connect(&rank_name(j), ConnectionConfig::unreliable())?;
        let down = nodes[j as usize].accept(Duration::from_secs(30))?;
        links[i as usize].insert(j as usize, up);
        links[j as usize].insert(i as usize, down);
    }
    Ok(nodes
        .into_iter()
        .zip(links)
        .enumerate()
        .map(|(rank, (node, links))| LocalSession {
            node,
            rank: rank as u32,
            world: n,
            links,
        })
        .collect())
}

/// One member of a [`LocalWorld`] (the in-process [`Session`] backend).
#[derive(Debug)]
pub struct LocalSession {
    node: NcsNode,
    rank: u32,
    world: u32,
    links: HashMap<usize, NcsConnection>,
}

impl LocalSession {
    /// The bootstrap connection to `rank`, if it is another member.
    pub fn connection(&self, rank: u32) -> Option<&NcsConnection> {
        self.links.get(&(rank as usize))
    }
}

impl Session for LocalSession {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn world_size(&self) -> u32 {
        self.world
    }

    fn node(&self) -> &NcsNode {
        &self.node
    }

    fn connect(&self, peer: u32, cfg: ConnectionConfig) -> Result<NcsConnection, SessionError> {
        if peer == self.rank || peer >= self.world {
            return Err(SessionError::BadRank {
                rank: peer,
                world: self.world,
            });
        }
        Ok(self.node.connect(&rank_name(peer), cfg)?)
    }

    fn accept(&self, timeout: Duration) -> Result<NcsConnection, SessionError> {
        Ok(self.node.accept(timeout)?)
    }

    fn collective_group(&self, id: u32) -> Result<CollectiveGroup, SessionError> {
        Ok(CollectiveGroup::new(
            &self.node,
            id,
            self.rank as usize,
            self.links.clone(),
        )?)
    }

    fn shutdown(&self) {
        self.node.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_member_world_is_rejected() {
        assert!(LocalWorld::create(0).is_err());
    }

    #[test]
    fn local_world_wires_ranks_and_links() {
        let world = LocalWorld::create(3).expect("world");
        assert_eq!(world.len(), 3);
        for (i, s) in world.iter().enumerate() {
            assert_eq!(s.rank(), i as u32);
            assert_eq!(s.world_size(), 3);
            assert_eq!(s.node().rank(), Some(i as u32));
            for j in 0..3u32 {
                assert_eq!(s.connection(j).is_some(), j != i as u32);
            }
        }
        // Bootstrap links carry point-to-point traffic member to member.
        world[0].connection(2).unwrap().send(b"hi two").unwrap();
        assert_eq!(world[2].connection(0).unwrap().recv().unwrap(), b"hi two");
        for s in &world {
            s.shutdown();
        }
    }

    #[test]
    fn session_connect_validates_ranks() {
        let world = LocalWorld::create(2).expect("world");
        assert!(matches!(
            world[0].connect(0, ConnectionConfig::unreliable()),
            Err(SessionError::BadRank { rank: 0, world: 2 })
        ));
        assert!(matches!(
            world[0].connect(7, ConnectionConfig::unreliable()),
            Err(SessionError::BadRank { rank: 7, world: 2 })
        ));
        for s in &world {
            s.shutdown();
        }
    }
}
