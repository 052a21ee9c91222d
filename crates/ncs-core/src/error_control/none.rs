//! The null error-control algorithm: fire and forget.
//!
//! Used for error-resilient media streams ("users can deactivate it in NCS
//! to reduce the overhead") and over reliable interfaces where the kernel
//! already guarantees delivery.

use std::time::Duration;

use super::{AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep};

/// Sender: transmit once, never wait for acknowledgements.
#[derive(Debug, Default)]
pub struct NoEcSender {
    total: u32,
}

impl NoEcSender {
    /// Creates the null sender.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SenderEc for NoEcSender {
    fn begin(&mut self, total: u32) -> SenderStep {
        self.total = total;
        SenderStep::Transmit((0..total).collect())
    }

    fn on_ack(&mut self, _info: AckInfo) -> SenderStep {
        SenderStep::Wait // no acks expected; ignore strays
    }

    fn on_timeout(&mut self) -> SenderStep {
        SenderStep::Wait
    }

    fn on_probe(&mut self) -> SenderStep {
        SenderStep::Wait
    }

    fn ack_timeout(&self) -> Option<Duration> {
        None
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Receiver: reassemble in arrival order, deliver on the end bit, never
/// acknowledge. A lost SDU means a lost (or truncated) message — exactly
/// the contract media streams accept.
#[derive(Debug, Default)]
pub struct NoEcReceiver {
    assembled: Vec<u8>,
}

impl NoEcReceiver {
    /// Creates the null receiver.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReceiverEc for NoEcReceiver {
    fn on_packet(&mut self, _seq: u32, end: bool, payload: Vec<u8>) -> ReceiverStep {
        self.assembled.extend_from_slice(&payload);
        if end {
            ReceiverStep::Deliver(std::mem::take(&mut self.assembled))
        } else {
            ReceiverStep::Continue
        }
    }

    fn reset(&mut self) {
        self.assembled.clear();
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_completes_without_acks() {
        let mut tx = NoEcSender::new();
        assert_eq!(tx.begin(3), SenderStep::Transmit(vec![0, 1, 2]));
        assert!(tx.completes_without_ack());
        assert_eq!(tx.ack_timeout(), None);
        assert_eq!(tx.on_timeout(), SenderStep::Wait);
    }

    #[test]
    fn receiver_delivers_on_end_bit() {
        let mut rx = NoEcReceiver::new();
        assert_eq!(rx.on_packet(0, false, vec![1, 2]), ReceiverStep::Continue);
        assert_eq!(
            rx.on_packet(1, true, vec![3]),
            ReceiverStep::Deliver(vec![1, 2, 3])
        );
        // State resets for the next message.
        assert_eq!(
            rx.on_packet(0, true, vec![9]),
            ReceiverStep::Deliver(vec![9])
        );
    }
}
