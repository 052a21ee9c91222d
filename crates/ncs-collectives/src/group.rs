//! Group communication services under the paper's names (§2): multicast
//! with a selectable algorithm — repetitive send or a multicast spanning
//! tree — plus a barrier.
//!
//! [`NcsGroup`] is a façade over [`CollectiveGroup`]: a multicast is an
//! *unmatched* broadcast rooted at the caller (no member posts a matching
//! call; see [`Machine::multicast`](crate::machine::Machine::multicast)),
//! relayed and delivered by the same machine that runs the typed
//! collectives, and the barrier is [`CollectiveGroup::ibarrier`] with the
//! caller's timeout. The group owns no threads.

use std::collections::HashMap;
use std::time::Duration;

use ncs_core::{NcsConnection, NcsNode, SendError};

use crate::engine::CollectiveGroup;
use crate::handle::CollectiveError;
use crate::topology::Topology;

/// Multicast algorithm (paper §2: "repetitive send/receive or a multicast
/// spanning tree").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MulticastAlgo {
    /// The origin unicasts to every member ([`Topology::Flat`]).
    Repetitive,
    /// Members forward along a binomial tree rooted at the origin
    /// ([`Topology::BinomialTree`]).
    #[default]
    SpanningTree,
}

/// Errors from group operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// Membership map is not a contiguous rank set.
    BadMembership(String),
    /// A group link failed.
    Send(SendError),
    /// Timed out waiting (receive or barrier).
    Timeout,
    /// The group was left/closed.
    Closed,
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::BadMembership(why) => write!(f, "bad group membership: {why}"),
            GroupError::Send(e) => write!(f, "group link failure: {e}"),
            GroupError::Timeout => write!(f, "group operation timed out"),
            GroupError::Closed => write!(f, "group closed"),
        }
    }
}

impl std::error::Error for GroupError {}

impl From<SendError> for GroupError {
    fn from(e: SendError) -> Self {
        GroupError::Send(e)
    }
}

impl From<CollectiveError> for GroupError {
    fn from(e: CollectiveError) -> Self {
        match e {
            CollectiveError::Send(e) => GroupError::Send(e),
            CollectiveError::Timeout => GroupError::Timeout,
            CollectiveError::Closed | CollectiveError::ViewChanged { .. } => GroupError::Closed,
            CollectiveError::BadArg(why) | CollectiveError::Protocol(why) => {
                GroupError::BadMembership(why)
            }
        }
    }
}

/// One member's view of a process group.
///
/// Built over dedicated pairwise connections: the group owns their
/// receive queues, so do not share them with point-to-point traffic.
#[derive(Debug)]
pub struct NcsGroup {
    group: CollectiveGroup,
    algo: MulticastAlgo,
}

impl NcsGroup {
    /// Forms group `id` with this member at `rank`, over `links` mapping
    /// every other member's rank to an established connection.
    ///
    /// # Errors
    ///
    /// [`GroupError::BadMembership`] unless `links` covers exactly the
    /// ranks `0..size` minus `rank`.
    pub fn new(
        node: &NcsNode,
        id: u32,
        rank: usize,
        links: HashMap<usize, NcsConnection>,
        algo: MulticastAlgo,
    ) -> Result<Self, GroupError> {
        let group = CollectiveGroup::new(node, id, rank, links)?;
        Ok(NcsGroup { group, algo })
    }

    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.group.rank()
    }

    /// Group size (members).
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The configured multicast algorithm.
    pub fn algo(&self) -> MulticastAlgo {
        self.algo
    }

    /// A member that saw a link fail must not go on as if the group were
    /// whole: a relay that could not forward leaves a subtree unserved. A
    /// group that is closed (left, or its node shut down) says so first.
    fn check(&self) -> Result<(), GroupError> {
        self.group.check_closed()?;
        self.group.link_fault().map_or(Ok(()), |e| Err(e.into()))
    }

    /// Multicasts `data` to every other member.
    ///
    /// # Errors
    ///
    /// Propagates link failures.
    pub fn multicast(&self, data: &[u8]) -> Result<(), GroupError> {
        self.check()?;
        let topo = match self.algo {
            MulticastAlgo::Repetitive => Topology::Flat,
            MulticastAlgo::SpanningTree => Topology::BinomialTree,
        };
        Ok(self.group.imulticast(data, topo)?.wait()?)
    }

    /// Receives the next multicast delivered to this member:
    /// `(origin rank, payload)`.
    ///
    /// # Errors
    ///
    /// [`GroupError::Timeout`] / [`GroupError::Closed`] /
    /// [`GroupError::Send`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(usize, Vec<u8>), GroupError> {
        self.check()?;
        let delivered = self.group.recv_multicast(timeout);
        // Again: a relay fails before it delivers, so a payload handed over
        // here may be one whose subtree this member failed to serve.
        self.check()?;
        match delivered {
            Some(m) => Ok(m),
            None => Err(match self.group.check_closed() {
                Ok(()) => GroupError::Timeout,
                Err(e) => e.into(),
            }),
        }
    }

    /// Blocks until every member has entered the barrier.
    ///
    /// # Errors
    ///
    /// [`GroupError::Timeout`] after `timeout` without global arrival.
    pub fn barrier(&self, timeout: Duration) -> Result<(), GroupError> {
        self.check()?;
        Ok(self.group.ibarrier_within(timeout)?.wait()?)
    }

    /// Leaves the group. The underlying connections remain open (owned by
    /// the caller's node).
    pub fn leave(&self) {
        self.group.close();
    }
}
