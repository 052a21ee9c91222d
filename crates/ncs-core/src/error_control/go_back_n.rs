//! Go-back-N error control: cumulative acknowledgements, in-order
//! acceptance, window restart on loss.

use std::time::Duration;

use super::{AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep};

/// Sender half of go-back-N.
#[derive(Debug)]
pub struct GbnSender {
    window: u32,
    timeout: Duration,
    max_retries: u32,
    retries: u32,
    total: u32,
    /// Everything below `base` is acknowledged.
    base: u32,
    /// Next sequence number not yet transmitted.
    next: u32,
    active: bool,
}

impl GbnSender {
    /// Creates the sender.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32, timeout: Duration, max_retries: u32) -> Self {
        assert!(window > 0, "window must be positive");
        GbnSender {
            window,
            timeout,
            max_retries,
            retries: 0,
            total: 0,
            base: 0,
            next: 0,
            active: false,
        }
    }
}

impl SenderEc for GbnSender {
    fn begin(&mut self, total: u32) -> SenderStep {
        self.total = total;
        self.base = 0;
        self.retries = 0;
        self.active = true;
        self.next = total.min(self.window);
        SenderStep::Transmit((0..self.next).collect())
    }

    fn on_ack(&mut self, info: AckInfo) -> SenderStep {
        let AckInfo::Cumulative(next_expected) = info else {
            return SenderStep::Wait;
        };
        if !self.active || next_expected <= self.base || next_expected > self.total {
            return SenderStep::Wait; // duplicate or stale ack
        }
        self.base = next_expected;
        self.retries = 0; // progress resets the budget
        if self.base >= self.total {
            self.active = false;
            return SenderStep::Done;
        }
        // The window slid open: transmit newly admitted sequence numbers.
        let upto = self.total.min(self.base + self.window);
        if upto > self.next {
            let fresh: Vec<u32> = (self.next..upto).collect();
            self.next = upto;
            SenderStep::Transmit(fresh)
        } else {
            SenderStep::Wait
        }
    }

    fn on_timeout(&mut self) -> SenderStep {
        if !self.active {
            return SenderStep::Wait;
        }
        self.retries += 1;
        if self.retries > self.max_retries {
            return SenderStep::Failed(format!(
                "go-back-N exhausted {} retries at base {}",
                self.max_retries, self.base
            ));
        }
        self.on_probe()
    }

    fn on_probe(&mut self) -> SenderStep {
        if !self.active {
            return SenderStep::Wait;
        }
        // Go back: retransmit the whole window from base (every SDU is
        // acknowledged, so `base` is exact and there is nothing to ask).
        self.next = self.total.min(self.base + self.window);
        SenderStep::Transmit((self.base..self.next).collect())
    }

    fn ack_timeout(&self) -> Option<Duration> {
        Some(self.timeout)
    }

    fn name(&self) -> &'static str {
        "go-back-n"
    }
}

/// Receiver half of go-back-N: accepts only the next in-order SDU.
#[derive(Debug, Default)]
pub struct GbnReceiver {
    expected: u32,
    assembled: Vec<u8>,
}

impl GbnReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReceiverEc for GbnReceiver {
    fn on_packet(&mut self, seq: u32, end: bool, payload: Vec<u8>) -> ReceiverStep {
        if seq != self.expected {
            // Out of order — or a duplicate after delivery, in which case
            // `expected` sits one past the final SDU and this duplicate-ack
            // re-tells a sender whose completion ack was lost. Never reset
            // the cumulative counter here: the session layer calls
            // [`ReceiverEc::reset`] when the next message starts.
            return ReceiverStep::Ack(AckInfo::Cumulative(self.expected));
        }
        self.assembled.extend_from_slice(&payload);
        self.expected += 1;
        if end {
            let message = std::mem::take(&mut self.assembled);
            ReceiverStep::AckAndDeliver(AckInfo::Cumulative(self.expected), message)
        } else {
            ReceiverStep::Ack(AckInfo::Cumulative(self.expected))
        }
    }

    fn reset(&mut self) {
        self.expected = 0;
        self.assembled.clear();
    }

    fn name(&self) -> &'static str {
        "go-back-n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u32) -> Vec<u8> {
        vec![i as u8; 2]
    }

    #[test]
    fn window_limits_initial_burst() {
        let mut tx = GbnSender::new(3, Duration::from_millis(10), 2);
        assert_eq!(tx.begin(10), SenderStep::Transmit(vec![0, 1, 2]));
    }

    #[test]
    fn acks_slide_the_window() {
        let mut tx = GbnSender::new(3, Duration::from_millis(10), 2);
        tx.begin(10);
        assert_eq!(
            tx.on_ack(AckInfo::Cumulative(2)),
            SenderStep::Transmit(vec![3, 4])
        );
        assert_eq!(
            tx.on_ack(AckInfo::Cumulative(5)),
            SenderStep::Transmit(vec![5, 6, 7])
        );
    }

    #[test]
    fn completion_when_all_acked() {
        let mut tx = GbnSender::new(8, Duration::from_millis(10), 2);
        tx.begin(3);
        assert_eq!(tx.on_ack(AckInfo::Cumulative(3)), SenderStep::Done);
        // Stale acks after completion are ignored.
        assert_eq!(tx.on_ack(AckInfo::Cumulative(3)), SenderStep::Wait);
    }

    #[test]
    fn timeout_goes_back_to_base() {
        let mut tx = GbnSender::new(3, Duration::from_millis(10), 5);
        tx.begin(10);
        tx.on_ack(AckInfo::Cumulative(2));
        assert_eq!(
            tx.on_timeout(),
            SenderStep::Transmit(vec![2, 3, 4]) // window from base=2
        );
    }

    #[test]
    fn duplicate_acks_ignored() {
        let mut tx = GbnSender::new(3, Duration::from_millis(10), 2);
        tx.begin(10);
        tx.on_ack(AckInfo::Cumulative(2));
        assert_eq!(tx.on_ack(AckInfo::Cumulative(2)), SenderStep::Wait);
        assert_eq!(tx.on_ack(AckInfo::Cumulative(1)), SenderStep::Wait);
    }

    #[test]
    fn receiver_accepts_in_order_only() {
        let mut rx = GbnReceiver::new();
        assert_eq!(
            rx.on_packet(0, false, payload(0)),
            ReceiverStep::Ack(AckInfo::Cumulative(1))
        );
        // Out of order: discarded, duplicate ack.
        assert_eq!(
            rx.on_packet(2, false, payload(2)),
            ReceiverStep::Ack(AckInfo::Cumulative(1))
        );
        assert_eq!(
            rx.on_packet(1, false, payload(1)),
            ReceiverStep::Ack(AckInfo::Cumulative(2))
        );
        match rx.on_packet(2, true, payload(2)) {
            ReceiverStep::AckAndDeliver(AckInfo::Cumulative(3), msg) => {
                assert_eq!(msg, [payload(0), payload(1), payload(2)].concat());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_to_end_with_loss() {
        let mut tx = GbnSender::new(2, Duration::from_millis(10), 5);
        let mut rx = GbnReceiver::new();
        let total = 4u32;
        let SenderStep::Transmit(first) = tx.begin(total) else {
            panic!()
        };
        assert_eq!(first, vec![0, 1]);
        // Deliver 0, lose 1.
        let mut steps = vec![rx.on_packet(0, false, payload(0))];
        // Ack for 0 slides window to admit 2.
        let step = tx.on_ack(AckInfo::Cumulative(1));
        assert_eq!(step, SenderStep::Transmit(vec![2]));
        // 2 arrives out of order -> duplicate ack.
        steps.push(rx.on_packet(2, false, payload(2)));
        assert_eq!(tx.on_ack(AckInfo::Cumulative(1)), SenderStep::Wait);
        // Timeout: go back to 1.
        let SenderStep::Transmit(retrans) = tx.on_timeout() else {
            panic!()
        };
        assert_eq!(retrans, vec![1, 2]);
        rx.on_packet(1, false, payload(1));
        rx.on_packet(2, false, payload(2));
        let step = tx.on_ack(AckInfo::Cumulative(3));
        assert_eq!(step, SenderStep::Transmit(vec![3]));
        match rx.on_packet(3, true, payload(3)) {
            ReceiverStep::AckAndDeliver(AckInfo::Cumulative(4), msg) => {
                assert_eq!(msg.len(), 8);
                assert_eq!(tx.on_ack(AckInfo::Cumulative(4)), SenderStep::Done);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retries_exhaust() {
        let mut tx = GbnSender::new(1, Duration::from_millis(1), 1);
        tx.begin(1);
        assert!(matches!(tx.on_timeout(), SenderStep::Transmit(_)));
        assert!(matches!(tx.on_timeout(), SenderStep::Failed(_)));
    }
}
