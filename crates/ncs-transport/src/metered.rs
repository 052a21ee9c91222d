//! [`Metered`]: a transparent [`Connection`] wrapper that counts frames
//! and bytes into [`ncs_obs`] counters.
//!
//! The counters are created in a [`Registry`](ncs_obs::Registry) labelled
//! by interface family, so every connection of one interface shares one
//! set of series (`ncs_transport_*_total{interface="ACI"}`) and the
//! per-frame cost stays at a handful of relaxed atomic adds. `ncs-core`
//! wraps every data channel it opens; the wrapper is public so bare
//! transport users can opt in too.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_obs::{Counter, Registry};

use crate::iface::{Capabilities, Connection, Readiness, TransportError, Waker};

/// A [`Connection`] decorator counting traffic into registry counters.
#[derive(Debug, Clone)]
pub struct Metered {
    inner: Arc<dyn Connection>,
    frames_sent: Counter,
    bytes_sent: Counter,
    frames_received: Counter,
    bytes_received: Counter,
}

impl Metered {
    /// Wraps `inner`, registering (or re-using — the registry dedupes)
    /// the interface's traffic counters in `registry`.
    pub fn register(inner: Arc<dyn Connection>, registry: &Registry) -> Self {
        let interface = inner.caps().interface;
        let labels: &[(&str, &str)] = &[("interface", interface)];
        let c = |name: &str, help: &str| registry.counter(name, help, labels);
        Metered {
            inner,
            frames_sent: c(
                "ncs_transport_frames_sent_total",
                "Frames handed to the interface",
            ),
            bytes_sent: c(
                "ncs_transport_bytes_sent_total",
                "Frame bytes handed to the interface",
            ),
            frames_received: c(
                "ncs_transport_frames_received_total",
                "Frames received from the interface",
            ),
            bytes_received: c(
                "ncs_transport_bytes_received_total",
                "Frame bytes received from the interface",
            ),
        }
    }

    fn note_rx(&self, frame: &[u8]) {
        self.frames_received.inc();
        self.bytes_received.add(frame.len() as u64);
    }

    fn note_tx(&self, frames: &[&[u8]], sent: usize) {
        self.frames_sent.add(sent as u64);
        let bytes: usize = frames[..sent].iter().map(|f| f.len()).sum();
        self.bytes_sent.add(bytes as u64);
    }
}

impl Connection for Metered {
    fn caps(&self) -> Capabilities {
        self.inner.caps()
    }

    fn send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let sent = self.inner.send_batch(frames)?;
        self.note_tx(frames, sent);
        Ok(sent)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let frame = self.inner.recv_timeout(timeout)?;
        self.note_rx(&frame);
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        let frame = self.inner.try_recv()?;
        if let Some(f) = &frame {
            self.note_rx(f);
        }
        Ok(frame)
    }

    fn recycle(&self, frame: Vec<u8>) {
        self.inner.recycle(frame);
    }

    fn try_send_batch(&self, frames: &[&[u8]]) -> Result<usize, TransportError> {
        let sent = self.inner.try_send_batch(frames)?;
        self.note_tx(frames, sent);
        Ok(sent)
    }

    fn owes_bytes(&self) -> bool {
        self.inner.owes_bytes()
    }

    fn readiness(&self) -> Readiness {
        self.inner.readiness()
    }

    fn register_waker(&self, waker: Option<Waker>) {
        self.inner.register_waker(waker);
    }

    fn due(&self) -> Option<Instant> {
        self.inner.due()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_frames_and_bytes_per_interface() {
        let registry = Registry::new();
        let (a, b) = crate::hpi::pair(16);
        let a = Metered::register(Arc::new(a), &registry);
        let b = Metered::register(Arc::new(b), &registry);
        a.send(b"hello").unwrap();
        a.send_batch(&[b"ab", b"cd"]).unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.recv_many(8, Duration::from_secs(1)).unwrap().len(), 2);
        let snap = registry.snapshot();
        // Both endpoints share the interface-labelled series.
        assert_eq!(snap.counter_total("ncs_transport_frames_sent_total"), 3);
        assert_eq!(snap.counter_total("ncs_transport_bytes_sent_total"), 9);
        assert_eq!(snap.counter_total("ncs_transport_frames_received_total"), 3);
        assert_eq!(snap.counter_total("ncs_transport_bytes_received_total"), 9);
    }

    /// A metered SCI endpoint still says when a frame its socket took
    /// only part of owes bytes: nothing else makes the caller write them.
    #[test]
    fn forwards_what_a_partial_frame_owes() {
        let (a, _b) = crate::sci::loopback_pair().unwrap();
        let a = Metered::register(Arc::new(a), &Registry::new());
        assert!(!a.owes_bytes());
        assert_eq!(a.try_send_batch(&[&vec![3u8; 4 << 20]]), Ok(1));
        assert!(a.owes_bytes(), "no socket buffer holds 4 MiB");
    }
}
