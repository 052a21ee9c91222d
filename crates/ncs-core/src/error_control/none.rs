//! The null error-control algorithm: fire and forget.
//!
//! Used for error-resilient media streams ("users can deactivate it in NCS
//! to reduce the overhead") and over reliable interfaces where the kernel
//! already guarantees delivery.
//!
//! Only the sender half is a strategy. A receiver without error control
//! has nothing to decide: the receive plane appends each payload to the
//! message in arrival order and delivers it on the end bit, straight into a
//! pooled buffer (`plane.rs`). A lost SDU means a lost (or truncated)
//! message — exactly the contract media streams accept.

use std::time::Duration;

use super::{AckInfo, SenderEc, SenderStep};

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
        SenderStep::TransmitRange(0..total)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_completes_without_acks() {
        let mut tx = NoEcSender::new();
        assert_eq!(tx.begin(3), SenderStep::TransmitRange(0..3));
        assert!(tx.completes_without_ack());
        assert_eq!(tx.ack_timeout(), None);
        assert_eq!(tx.on_timeout(), SenderStep::Wait);
    }
}
