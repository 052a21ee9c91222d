//! HPI — the High Performance Interface (the paper's "Trap" interface).
//!
//! Modelled as a pair of bounded in-process rings, the software analogue of
//! a NIC descriptor ring reached by trapping straight past the protocol
//! stack. Properties:
//!
//! * lowest latency of all interfaces (no syscalls, no copies beyond the
//!   frame itself);
//! * **drops frames when the receiver's ring is full** (receiver overrun) —
//!   which is why NCS pairs HPI with its credit-based flow control for bulk
//!   transfers;
//! * frames are never corrupted or reordered, and never lost otherwise.
//!
//! It says so in its capabilities ([`Capabilities::overrun_ring`]: the
//! ring's capacity): a connection whose credit window can never fill the ring
//! loses nothing, so NCS runs it under the window alone, without
//! acknowledgements (`ncs_core`'s `plane.rs`). A frame the ring took is
//! the receiver's: an `isend` over such a connection completes when the
//! ring takes its last frame.
//!
//! A frame is copied into the ring once. The buffer it travels in is one
//! its receiver handed back ([`Connection::recycle`]) where there is one,
//! so a steady stream allocates nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncs_threads::sync::Mailbox;

use crate::iface::{
    valid_prefix, Capabilities, Connection, Inbox, Readiness, TransportError, Waker,
    RETAIN_CAPACITY,
};

/// Default ring capacity, in frames.
pub const DEFAULT_RING: usize = 128;

/// Largest frame HPI accepts. Sized to fit an NCS packet with a 64 KB SDU.
pub const MAX_FRAME: usize = 128 * 1024;

/// One endpoint of an HPI link. Create pairs with [`pair`].
#[derive(Debug)]
pub struct HpiConnection {
    /// Ring we push into (the peer's receive side).
    tx: Arc<Inbox>,
    /// Ring we pop from.
    rx: Arc<Inbox>,
    overruns: AtomicU64,
    label: String,
}

/// Creates a connected pair of HPI endpoints with `capacity`-frame rings.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn pair(capacity: usize) -> (HpiConnection, HpiConnection) {
    let ring = || Arc::new(Inbox::new(Mailbox::bounded(capacity)));
    let (ab, ba) = (ring(), ring());
    let end = |tx, rx, label: &str| HpiConnection {
        tx,
        rx,
        overruns: AtomicU64::new(0),
        label: label.to_owned(),
    };
    (
        end(Arc::clone(&ab), Arc::clone(&ba), "hpi-peer-b"),
        end(ba, ab, "hpi-peer-a"),
    )
}

/// [`pair`] with the default ring size.
pub fn pair_default() -> (HpiConnection, HpiConnection) {
    pair(DEFAULT_RING)
}

impl HpiConnection {
    /// Frames dropped because this endpoint's *outbound* ring was full
    /// (receiver overrun at the peer).
    pub fn overruns(&self) -> u64 {
        self.overruns.load(Ordering::Relaxed)
    }

    /// Frames currently queued for this endpoint to receive.
    pub fn pending(&self) -> usize {
        self.rx.queue.len()
    }
}

impl Connection for HpiConnection {
    fn caps(&self) -> Capabilities {
        Capabilities {
            interface: "HPI",
            // The peer reads what we push; both rings of a pair are as
            // long, so both ends agree.
            overrun_ring: self.tx.queue.capacity(),
            ordered: true,
            max_frame: MAX_FRAME,
        }
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let valid = valid_prefix(frames, MAX_FRAME)?;
        if valid == 0 {
            return Ok(0);
        }
        if self.tx.has_ended() || self.rx.has_ended() {
            return Err(TransportError::Closed);
        }
        // One ring acquisition for the whole batch. NIC-ring semantics: a
        // full ring is the receiver's problem — frames beyond its free
        // space are dropped (the receiver's overrun), not back-pressured,
        // so every valid frame "sends". Each frame is copied into a buffer
        // the receiver handed back, if one is left.
        let mut spares = self.tx.spares.lock();
        let rejected = self.tx.queue.try_send_many(frames[..valid].iter().map(|f| {
            let mut buf = spares.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(f);
            buf
        }));
        drop(spares);
        if !rejected.is_empty() {
            self.overruns
                .fetch_add(rejected.len() as u64, Ordering::Relaxed);
        }
        Ok(valid)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.rx.recv_timeout(timeout, || None)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.rx.try_recv()
    }

    fn recycle(&self, frame: Vec<u8>) {
        let mut spares = self.rx.spares.lock();
        let ring = self.rx.queue.capacity().unwrap_or(0);
        if frame.capacity() <= RETAIN_CAPACITY && spares.len() < ring {
            spares.push(frame);
        }
    }

    fn readiness(&self) -> Readiness {
        Readiness::Waker
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.rx.queue.set_notify(waker);
    }

    fn close(&self) {
        // Both rings end, and their readiness-driven consumers wake to see
        // it; frames already in our ring stay receivable.
        self.tx.end();
        self.rx.end();
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_flow_both_ways() {
        let (a, b) = pair_default();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn fifo_order() {
        let (a, b) = pair_default();
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn overrun_drops_and_counts() {
        let (a, b) = pair(4);
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        assert_eq!(a.overruns(), 6);
        assert_eq!(b.pending(), 4);
        // The four that fit are the oldest (ring keeps head of line).
        for i in 0..4u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn caps_report_unreliable_ordered() {
        let (a, _b) = pair_default();
        let caps = a.caps();
        assert_eq!(caps.overrun_ring, Some(DEFAULT_RING));
        assert_eq!(pair(16).1.caps().overrun_ring, Some(16));
        assert!(caps.ordered);
        assert_eq!(caps.interface, "HPI");
    }

    #[test]
    fn empty_and_oversized_rejected() {
        let (a, _b) = pair_default();
        assert_eq!(a.send(b""), Err(TransportError::Empty));
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(a.send(&big), Err(TransportError::TooLarge { .. })));
    }

    #[test]
    fn close_fails_sends_but_drains_queue() {
        let (a, b) = pair_default();
        a.send(b"last").unwrap();
        a.close();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        // Close on `a` marks both rings; queued frame still drains.
        assert_eq!(b.try_recv(), Ok(Some(b"last".to_vec())));
        assert_eq!(b.try_recv(), Err(TransportError::Closed));
    }

    #[test]
    fn recv_timeout_expires() {
        let (_a, b) = pair_default();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn recv_unblocks_on_close() {
        let (a, b) = pair_default();
        let t = std::thread::spawn(move || b.recv());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert_eq!(t.join().unwrap(), Err(TransportError::Closed));
    }

    #[test]
    fn send_batch_keeps_order_and_counts_overruns() {
        let (a, b) = pair(4);
        let frames: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        assert_eq!(a.send_batch(&refs).unwrap(), 6);
        // Ring holds 4: the oldest four survive, two overran.
        assert_eq!(a.overruns(), 2);
        let got = b.recv_many(16, Duration::from_millis(100)).unwrap();
        assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn recv_many_drains_then_times_out() {
        let (a, b) = pair_default();
        for i in 0..3u8 {
            a.send(&[i]).unwrap();
        }
        let got = b.recv_many(8, Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            b.recv_many(8, Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
        a.close();
        assert_eq!(
            b.recv_many(8, Duration::from_millis(20)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn send_batch_sends_valid_prefix_then_surfaces_error() {
        let (a, b) = pair_default();
        let ok: &[u8] = b"ok";
        let empty: &[u8] = b"";
        // The valid prefix goes out; the invalid frame errors on retry.
        assert_eq!(a.send_batch(&[ok, empty]), Ok(1));
        assert_eq!(a.send_batch(&[empty]), Err(TransportError::Empty));
        assert_eq!(b.recv().unwrap(), b"ok");
        a.close();
        assert_eq!(a.send_batch(&[ok]), Err(TransportError::Closed));
    }

    #[test]
    fn cross_thread_throughput() {
        let (a, b) = pair(1024);
        let t = std::thread::spawn(move || {
            for i in 0..1000u32 {
                // Spin on overruns: the test ring is large enough that the
                // reader keeps up, but stay robust.
                a.send(&i.to_be_bytes()).unwrap();
            }
        });
        let mut received = 0u32;
        while received < 1000 {
            match b.recv_timeout(Duration::from_secs(5)) {
                Ok(_) => received += 1,
                Err(TransportError::Timeout) => break,
                Err(e) => panic!("{e}"),
            }
        }
        t.join().unwrap();
        // With a 1024-deep ring and a single reader, nothing should drop.
        assert_eq!(received, 1000);
    }
}
