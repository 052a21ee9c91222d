//! Discrete-event core: the event queue and the public event type.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::aal5::ReassemblyError;
use crate::cell::AtmCell;
use crate::network::{ConnId, NodeId, QosParams, SetupTicket, SignalMsg};
use crate::time::SimTime;

/// An observable simulation outcome, delivered to the caller of
/// [`crate::Network::run_until`] or to a [`crate::DeliverySink`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// An AAL5 frame arrived intact at `host` on `conn`.
    Frame {
        /// Receiving host.
        host: NodeId,
        /// Receiving connection.
        conn: ConnId,
        /// The reassembled frame.
        frame: Vec<u8>,
        /// Virtual arrival time.
        at: SimTime,
    },
    /// A frame failed reassembly (cell loss or corruption).
    FrameError {
        /// Receiving host.
        host: NodeId,
        /// Receiving connection.
        conn: ConnId,
        /// Why reassembly failed.
        error: ReassemblyError,
        /// Virtual detection time.
        at: SimTime,
    },
    /// The VC requested via [`crate::Network::open_vc`] is up.
    VcEstablished {
        /// Ticket returned by `open_vc`.
        ticket: SetupTicket,
        /// Originating host.
        host: NodeId,
        /// Connection id at the originating host.
        conn: ConnId,
        /// Remote host.
        peer: NodeId,
        /// Connection id at the remote host.
        peer_conn: ConnId,
        /// Virtual completion time.
        at: SimTime,
    },
    /// A remote host opened a VC towards `host` (auto-accepted).
    IncomingVc {
        /// Accepting host.
        host: NodeId,
        /// Newly created local connection id.
        conn: ConnId,
        /// Originating host.
        peer: NodeId,
        /// QoS requested by the originator.
        qos: QosParams,
        /// Virtual acceptance time.
        at: SimTime,
    },
    /// A VC was torn down by the remote side.
    VcReleased {
        /// Host observing the release.
        host: NodeId,
        /// Connection that was released.
        conn: ConnId,
        /// Virtual release time.
        at: SimTime,
    },
}

impl NetEvent {
    /// Virtual time at which the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            NetEvent::Frame { at, .. }
            | NetEvent::FrameError { at, .. }
            | NetEvent::VcEstablished { at, .. }
            | NetEvent::IncomingVc { at, .. }
            | NetEvent::VcReleased { at, .. } => *at,
        }
    }
}

/// Internal scheduled work.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A cell arrives at `node` via the link attached to its port `port`.
    CellArrive {
        node: NodeId,
        port: usize,
        cell: AtmCell,
    },
    /// A signaling message arrives at `node`.
    Signal { node: NodeId, msg: SignalMsg },
}

#[derive(Debug)]
pub(crate) struct Scheduled {
    pub at: SimTime,
    seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Min-heap by (time, seq): BinaryHeap is a max-heap, so reverse.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic FIFO-tie-broken event queue.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// When each pending event whose outcome can be observed is due: a
    /// signal, or a cell that ends a frame (no other cell completes one).
    marks: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !matches!(&kind, EventKind::CellArrive { cell, .. } if !cell.is_frame_end()) {
            self.marks.push(Reverse((at, seq)));
        }
        self.heap.push(Scheduled { at, seq, kind });
    }

    /// When the next event whose outcome can be observed is due.
    pub(crate) fn next_mark(&self) -> Option<SimTime> {
        self.marks.peek().map(|Reverse((at, _))| *at)
    }

    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event if it is due at or before `t`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<Scheduled> {
        if self.next_time()? > t {
            return None;
        }
        // Both heaps pop in (time, seq) order: a marked event is the
        // marks' head when it pops.
        let event = self.heap.pop()?;
        if self.marks.peek() == Some(&Reverse((event.at, event.seq))) {
            self.marks.pop();
        }
        Some(event)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{AtmCell, Vc};

    fn cell_event(node: u32) -> EventKind {
        EventKind::CellArrive {
            node: NodeId::from_raw(node),
            port: 0,
            cell: AtmCell::data(Vc::new(32), [0; 48], true),
        }
    }

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(20), cell_event(2));
        q.schedule(SimTime::from_micros(10), cell_event(1));
        q.schedule(SimTime::from_micros(10), cell_event(3));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_due(SimTime::from_secs(1)))
            .map(|s| match s.kind {
                EventKind::CellArrive { node, .. } => node.as_raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    /// A waiter on the network wakes for what it can observe: a cell in
    /// the middle of a frame completes nothing, so only the frame's last
    /// cell (and signaling) is marked.
    #[test]
    fn only_frame_ends_are_marked_observable() {
        let mut q = EventQueue::new();
        let middle = EventKind::CellArrive {
            node: NodeId::from_raw(1),
            port: 0,
            cell: AtmCell::data(Vc::new(32), [0; 48], false),
        };
        q.schedule(SimTime::from_micros(10), middle);
        assert_eq!(q.next_mark(), None);
        q.schedule(SimTime::from_micros(20), cell_event(2));
        assert_eq!(q.next_time(), Some(SimTime::from_micros(10)));
        assert_eq!(q.next_mark(), Some(SimTime::from_micros(20)));
        assert!(q.pop_due(SimTime::from_micros(10)).is_some());
        assert_eq!(q.next_mark(), Some(SimTime::from_micros(20)));
        assert!(q.pop_due(SimTime::from_micros(20)).is_some());
        assert_eq!(q.next_mark(), None);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), cell_event(1));
        assert!(q.pop_due(SimTime::from_millis(4)).is_none());
        assert!(q.pop_due(SimTime::from_millis(5)).is_some());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
