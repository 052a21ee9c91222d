//! Error-control algorithms (paper §3.2).
//!
//! Each algorithm is a pair of strategy objects — sender and receiver —
//! driven by the connection's send and receive pipelines (the paper's
//! Error Control Threads; `plane.rs` here). The sender strategy
//! decides what to (re)transmit in response to acknowledgements and
//! timeouts; the receiver strategy accumulates SDUs, decides when to
//! acknowledge and when the reassembled message can be delivered to the
//! user buffer.
//!
//! The paper's default is selective repeat with bitmap ACKs (Figures 5/6);
//! go-back-N is the classic alternative it names.

mod go_back_n;
mod none;
mod selective_repeat;

pub use go_back_n::{GbnReceiver, GbnSender};
pub use none::NoEcSender;
pub use selective_repeat::{SrReceiver, SrSender};

use std::time::Duration;

use crate::config::ErrorControlAlg;
use crate::seq::AckBitmap;

/// Acknowledgement content, by algorithm family.
#[derive(Debug, Clone, PartialEq)]
pub enum AckInfo {
    /// Selective repeat: bitmap of still-missing SDUs.
    Bitmap(AckBitmap),
    /// Go-back-N: next expected sequence number (cumulative).
    Cumulative(u32),
}

/// What the sender strategy wants done next.
#[derive(Debug, Clone, PartialEq)]
pub enum SenderStep {
    /// (Re)transmit these sequence numbers, in order.
    Transmit(Vec<u32>),
    /// (Re)transmit this run of sequence numbers, in order: a
    /// [`SenderStep::Transmit`] with nothing to allocate.
    TransmitRange(std::ops::Range<u32>),
    /// The message is fully acknowledged.
    Done,
    /// The message could not be delivered (retry budget exhausted).
    Failed(String),
    /// Nothing to do; wait for the next acknowledgement or timeout.
    Wait,
}

/// Sender-side error control for one message at a time (the Error Control
/// Thread processes one user message start-to-finish, per Figure 6).
pub trait SenderEc: Send + std::fmt::Debug {
    /// Starts a new message of `total` SDUs; returns the initial
    /// transmissions.
    fn begin(&mut self, total: u32) -> SenderStep;

    /// An acknowledgement arrived.
    fn on_ack(&mut self, info: AckInfo) -> SenderStep;

    /// The retransmission timer fired after a full [`ack_timeout`] of
    /// silence: spends one retry of the budget, then does what
    /// [`on_probe`] does.
    ///
    /// [`ack_timeout`]: SenderEc::ack_timeout
    /// [`on_probe`]: SenderEc::on_probe
    fn on_timeout(&mut self) -> SenderStep;

    /// The retransmission timer fired earlier than a full
    /// [`ack_timeout`](SenderEc::ack_timeout) — the driver's estimate of
    /// the link's round trip ran out, not the configured patience. Same
    /// retransmissions as a timeout; the retry budget is not touched, so
    /// a session that hears nothing fails no sooner than
    /// `(max_retries + 1) × ack_timeout`, however short the estimates.
    fn on_probe(&mut self) -> SenderStep;

    /// The initial value and upper bound of the wait for an
    /// acknowledgement (the driver adapts the wait below it, see
    /// `plane.rs`); `None` = this algorithm never expects one.
    fn ack_timeout(&self) -> Option<Duration>;

    /// Whether the message completes as soon as the initial transmissions
    /// are out (no-acknowledgement algorithms).
    fn completes_without_ack(&self) -> bool {
        self.ack_timeout().is_none()
    }

    /// Algorithm name for diagnostics.
    fn name(&self) -> &'static str;
}

/// What the receiver strategy wants done after a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverStep {
    /// Send this acknowledgement back to the sender.
    Ack(AckInfo),
    /// The message reassembled; deliver it to the user buffer.
    Deliver(Vec<u8>),
    /// Acknowledge and deliver.
    AckAndDeliver(AckInfo, Vec<u8>),
    /// Keep accumulating.
    Continue,
}

/// Receiver-side error control for one session at a time.
pub trait ReceiverEc: Send + std::fmt::Debug {
    /// Consumes one SDU of the current session.
    fn on_packet(&mut self, seq: u32, end: bool, payload: Vec<u8>) -> ReceiverStep;

    /// Resets state for a new session.
    fn reset(&mut self);

    /// Algorithm name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Instantiates the sender strategy configured in `alg`.
pub fn build_sender(alg: &ErrorControlAlg) -> Box<dyn SenderEc> {
    match alg {
        ErrorControlAlg::None => Box::new(NoEcSender::new()),
        ErrorControlAlg::SelectiveRepeat {
            timeout,
            max_retries,
        } => Box::new(SrSender::new(*timeout, *max_retries)),
        ErrorControlAlg::GoBackN {
            window,
            timeout,
            max_retries,
        } => Box::new(GbnSender::new(*window, *timeout, *max_retries)),
    }
}

/// Instantiates the receiver strategy configured in `alg`; `None` without
/// error control, where the receive plane reassembles by itself.
pub fn build_receiver(alg: &ErrorControlAlg) -> Option<Box<dyn ReceiverEc>> {
    match alg {
        ErrorControlAlg::None => None,
        ErrorControlAlg::SelectiveRepeat { .. } => Some(Box::new(SrReceiver::new())),
        ErrorControlAlg::GoBackN { .. } => Some(Box::new(GbnReceiver::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches() {
        let alg = ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(10),
            max_retries: 2,
        };
        assert_eq!(build_sender(&alg).name(), "selective-repeat");
        assert_eq!(build_receiver(&alg).unwrap().name(), "selective-repeat");
        assert_eq!(build_sender(&ErrorControlAlg::None).name(), "none");
        assert!(build_receiver(&ErrorControlAlg::None).is_none());
        let gbn = ErrorControlAlg::GoBackN {
            window: 4,
            timeout: Duration::from_millis(10),
            max_retries: 2,
        };
        assert_eq!(build_sender(&gbn).name(), "go-back-n");
        assert_eq!(build_receiver(&gbn).unwrap().name(), "go-back-n");
    }
}
