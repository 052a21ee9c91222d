//! Flow-control algorithms (paper §3.3).
//!
//! Each algorithm is a strategy object driven by the connection's send and
//! receive pipelines (the paper's Flow Control Thread; `plane.rs` here):
//! the sender side asks how many SDUs may be transmitted
//! ([`FlowControlStrategy::permits`]) and takes in the feedback arriving
//! against its data; the receiver side notes each arriving
//! packet and names the window it grants. The strategy never sends
//! anything itself: the edge it yields travels inside the error-control
//! acknowledgement of the arrival that owes it, or alone when none
//! answers that arrival (`plane.rs`) — one frame where the paper's
//! Figure 4 has the two planes send one each. A window — a strategy only
//! feedback unblocks — counts *fresh* SDUs, never released before, so a
//! retransmission needs no permit; a pacer (one with a
//! [`next_poll`](FlowControlStrategy::next_poll)) meters every frame.
//!
//! The paper's default is the credit-based window scheme of Figures 7/8,
//! with dynamic credit adjustment ("active connections get more credits,
//! while inactive connections get only a fraction of the credits"). Here
//! the credit is a cumulative edge ([`CreditBased`]); without `dynamic`
//! it is a classic sliding window of `initial_credits` SDUs.

mod credit;
mod none;
mod rate;

pub use credit::CreditBased;
pub use none::NoFlowControl;
pub use rate::RateBased;

use std::time::Instant;

use crate::config::FlowControlAlg;

/// A flow-control algorithm instance for one connection (one side).
///
/// Implementations are driven from the Flow Control Thread and are not
/// required to be thread-safe themselves.
pub trait FlowControlStrategy: Send + std::fmt::Debug {
    /// Sender side: how many packets — fresh ones, under a window — may be
    /// transmitted right now.
    fn permits(&mut self, now: Instant) -> u32;

    /// Sender side: `n` packets counted against the permits were handed to
    /// the Send Thread.
    fn on_transmit(&mut self, n: u32);

    /// Sender side: `n` packets counted by `on_transmit` belonged to a
    /// session that was given up on; they hold nothing any more.
    fn on_abandon(&mut self, _n: u32) {}

    /// Sender side: feedback (the receiver's credit edge, alone or inside
    /// an acknowledgement) arrived.
    fn on_feedback(&mut self, n: u32);

    /// Receiver side: one packet arrived; returns the window to grant —
    /// credits beyond what the receiver has taken — over the control
    /// connection (0 = nothing to send).
    fn on_receive(&mut self, now: Instant) -> u32;

    /// When the sender should next re-poll `permits` even without feedback
    /// (rate-based pacing); `None` = only feedback unblocks.
    fn next_poll(&self, now: Instant) -> Option<Instant>;

    /// Algorithm name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Instantiates the strategy configured in `alg`.
pub fn build(alg: &FlowControlAlg) -> Box<dyn FlowControlStrategy> {
    match alg {
        FlowControlAlg::None => Box::new(NoFlowControl::new()),
        FlowControlAlg::CreditBased {
            initial_credits,
            dynamic,
        } => Box::new(CreditBased::new(*initial_credits, *dynamic)),
        FlowControlAlg::RateBased {
            packets_per_sec,
            burst,
        } => Box::new(RateBased::new(*packets_per_sec, *burst)),
    }
}

/// The widest window `alg` ever names, in SDUs: the most a sender under
/// it can have released and the receiver not yet taken. `None` unless it
/// is a window — no flow control, or a pacer, bounds nothing unread.
pub(crate) fn widest_window(alg: &FlowControlAlg) -> Option<u32> {
    match alg {
        FlowControlAlg::CreditBased {
            initial_credits,
            dynamic,
        } => Some(CreditBased::widest(*initial_credits, *dynamic)),
        FlowControlAlg::None | FlowControlAlg::RateBased { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_by_config() {
        assert_eq!(build(&FlowControlAlg::None).name(), "none");
        assert_eq!(
            build(&FlowControlAlg::CreditBased {
                initial_credits: 2,
                dynamic: false
            })
            .name(),
            "credit-based"
        );
        let mut window = build(&FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: false,
        });
        assert_eq!(window.name(), "credit-based");
        assert_eq!(window.permits(Instant::now()), 4);
        assert_eq!(
            build(&FlowControlAlg::RateBased {
                packets_per_sec: 10,
                burst: 1
            })
            .name(),
            "rate-based"
        );
    }
}
