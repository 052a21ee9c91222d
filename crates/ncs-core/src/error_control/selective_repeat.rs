//! Selective repeat with bitmap acknowledgements — the paper's default
//! error control (Figures 5/6).
//!
//! Sender: transmit all SDUs; wait for an ACK carrying the receiver's
//! missing-SDU bitmap; selectively retransmit the set bits. A timeout
//! means the sender does not know what the receiver holds — the end SDU,
//! a repair or the acknowledgement itself was lost — so it asks: it
//! retransmits the end SDU alone, the one SDU that makes the receiver
//! answer with its bitmap (Figure 5 step 5), and repairs from the answer.
//! (Figure 6's timeout "retransmits the whole packets"; a wrong guess
//! there costs the message again, here one frame and one
//! acknowledgement.) Receiver: clear bitmap bits as SDUs arrive; on
//! seeing the end-of-segmentation control bit, send the bitmap; deliver
//! once nothing is missing.
//!
//! The retry budget runs down on timeouts and is refilled only by an
//! acknowledgement that shows *fewer* SDUs missing than the last one did:
//! a path that keeps losing the same SDU keeps answering with the same
//! bitmap, and must fail the message, not retry it for ever.
//!
//! Only the end SDU makes the receiver answer, so a bitmap that comes
//! back before any end SDU has gone out since the last repair answers
//! one sent before it, and cannot show it: its holes are not repaired
//! again. (A probe sent before the first bitmap came back, and answered
//! after its repair, used to repair the same hole twice.) A repair that
//! was lost shows on the answer to the next probe.

use std::time::Duration;

use super::{AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep};
use crate::seq::AckBitmap;

/// Sender half of selective repeat.
#[derive(Debug)]
pub struct SrSender {
    timeout: Duration,
    max_retries: u32,
    retries: u32,
    /// Bits still unacknowledged.
    outstanding: Option<AckBitmap>,
    /// Whether the end SDU has gone out since the last repair: the next
    /// bitmap may show that repair.
    asked: bool,
}

impl SrSender {
    /// Creates the sender with the given retransmission timeout and retry
    /// budget.
    pub fn new(timeout: Duration, max_retries: u32) -> Self {
        SrSender {
            timeout,
            max_retries,
            retries: 0,
            outstanding: None,
            asked: false,
        }
    }
}

impl SenderEc for SrSender {
    fn begin(&mut self, total: u32) -> SenderStep {
        self.retries = 0;
        self.outstanding = Some(AckBitmap::all_missing(total));
        self.asked = true;
        SenderStep::Transmit((0..total).collect())
    }

    fn on_ack(&mut self, info: AckInfo) -> SenderStep {
        let AckInfo::Bitmap(bitmap) = info else {
            return SenderStep::Wait; // cumulative ack for another algorithm
        };
        let Some(outstanding) = &mut self.outstanding else {
            return SenderStep::Wait; // stale ack after completion
        };
        if bitmap.total() != outstanding.total() {
            return SenderStep::Wait; // stale ack from an earlier session
        }
        if !bitmap.any_missing() {
            self.outstanding = None;
            return SenderStep::Done;
        }
        // Only fewer SDUs missing is progress: the same bitmap again says
        // the repair was lost again.
        if bitmap.missing_count() < outstanding.missing_count() {
            self.retries = 0;
        }
        if !self.asked {
            // Written before the last repair arrived: its holes are being
            // repaired already.
            return SenderStep::Wait;
        }
        let missing = bitmap.missing();
        self.asked = missing.last() == Some(&(bitmap.total() - 1));
        *outstanding = bitmap;
        SenderStep::Transmit(missing)
    }

    fn on_timeout(&mut self) -> SenderStep {
        let Some(outstanding) = &self.outstanding else {
            return SenderStep::Wait;
        };
        self.retries += 1;
        if self.retries > self.max_retries {
            return SenderStep::Failed(format!(
                "selective repeat exhausted {} retries with {} SDUs unacknowledged",
                self.max_retries,
                outstanding.missing_count()
            ));
        }
        self.on_probe()
    }

    fn on_probe(&mut self) -> SenderStep {
        // The end SDU alone: only its end-of-segmentation bit makes the
        // receiver acknowledge (Figure 5 step 5) — with its bitmap, or,
        // if the message was delivered and the clean acknowledgement
        // lost, with that again.
        self.asked = true;
        match &self.outstanding {
            Some(outstanding) => SenderStep::Transmit(vec![outstanding.total() - 1]),
            None => SenderStep::Wait,
        }
    }

    fn ack_timeout(&self) -> Option<Duration> {
        Some(self.timeout)
    }

    fn name(&self) -> &'static str {
        "selective-repeat"
    }
}

/// Receiver half of selective repeat.
#[derive(Debug, Default)]
pub struct SrReceiver {
    /// Received payloads by sequence number.
    slots: Vec<Option<Vec<u8>>>,
    /// Total SDUs, learned from the end-bit packet.
    total: Option<u32>,
    received: u32,
}

impl SrReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    fn bitmap(&self) -> AckBitmap {
        let total = self.total.expect("bitmap requested before end bit");
        let mut b = AckBitmap::all_missing(total);
        for (i, slot) in self.slots.iter().enumerate().take(total as usize) {
            if slot.is_some() {
                b.mark_received(i as u32);
            }
        }
        b
    }

    fn complete(&self) -> bool {
        match self.total {
            Some(t) => self.received == t,
            None => false,
        }
    }

    fn assemble(&mut self) -> Vec<u8> {
        let total = self.total.expect("assemble before end bit") as usize;
        let mut out = Vec::new();
        for slot in self.slots.iter_mut().take(total) {
            out.extend_from_slice(&slot.take().expect("complete message has all slots"));
        }
        self.reset();
        out
    }
}

impl ReceiverEc for SrReceiver {
    fn on_packet(&mut self, seq: u32, end: bool, payload: Vec<u8>) -> ReceiverStep {
        if seq as usize >= self.slots.len() {
            self.slots.resize(seq as usize + 1, None);
        }
        if self.slots[seq as usize].is_none() {
            self.slots[seq as usize] = Some(payload);
            self.received += 1;
        }
        if end {
            self.total = Some(seq + 1);
        }
        match self.total {
            Some(_) if self.complete() => {
                let bitmap = AckBitmap::all_received(self.total.expect("total known"));
                let message = self.assemble();
                ReceiverStep::AckAndDeliver(AckInfo::Bitmap(bitmap), message)
            }
            // The end-bit packet triggers an acknowledgement even when SDUs
            // are missing (Figure 5 step 5) so the sender can selectively
            // retransmit.
            Some(_) if end => ReceiverStep::Ack(AckInfo::Bitmap(self.bitmap())),
            _ => ReceiverStep::Continue,
        }
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.total = None;
        self.received = 0;
    }

    fn name(&self) -> &'static str {
        "selective-repeat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u32) -> Vec<u8> {
        vec![i as u8; 4]
    }

    #[test]
    fn lossless_exchange_completes_in_one_round() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        let mut rx = SrReceiver::new();
        assert_eq!(tx.begin(3), SenderStep::Transmit(vec![0, 1, 2]));
        assert_eq!(rx.on_packet(0, false, payload(0)), ReceiverStep::Continue);
        assert_eq!(rx.on_packet(1, false, payload(1)), ReceiverStep::Continue);
        match rx.on_packet(2, true, payload(2)) {
            ReceiverStep::AckAndDeliver(AckInfo::Bitmap(b), msg) => {
                assert!(!b.any_missing());
                assert_eq!(msg, [payload(0), payload(1), payload(2)].concat());
                assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Done);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_packet_triggers_selective_retransmission() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        let mut rx = SrReceiver::new();
        tx.begin(4);
        // Packet 1 is lost.
        rx.on_packet(0, false, payload(0));
        rx.on_packet(2, false, payload(2));
        let step = rx.on_packet(3, true, payload(3));
        let ReceiverStep::Ack(AckInfo::Bitmap(b)) = step else {
            panic!("expected ack, got {step:?}");
        };
        assert_eq!(b.missing(), vec![1]);
        // Sender retransmits exactly the missing SDU.
        assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Transmit(vec![1]));
        // Retransmission arrives; message completes and is acknowledged
        // cleanly.
        match rx.on_packet(1, false, payload(1)) {
            ReceiverStep::AckAndDeliver(AckInfo::Bitmap(b), msg) => {
                assert!(!b.any_missing());
                assert_eq!(msg.len(), 16);
                assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Done);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lost_end_packet_recovered_by_timeout() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        let mut rx = SrReceiver::new();
        tx.begin(2);
        rx.on_packet(0, false, payload(0));
        // End packet lost; the sender times out and asks with the end SDU
        // alone, which here is also the repair.
        let step = tx.on_timeout();
        assert_eq!(step, SenderStep::Transmit(vec![1]));
        match rx.on_packet(1, true, payload(1)) {
            ReceiverStep::AckAndDeliver(AckInfo::Bitmap(b), _) => {
                assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Done);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retry_budget_exhausts_into_failure() {
        let mut tx = SrSender::new(Duration::from_millis(1), 2);
        tx.begin(1);
        assert!(matches!(tx.on_timeout(), SenderStep::Transmit(_)));
        assert!(matches!(tx.on_timeout(), SenderStep::Transmit(_)));
        assert!(matches!(tx.on_timeout(), SenderStep::Failed(_)));
    }

    #[test]
    fn progress_resets_retry_budget() {
        let mut tx = SrSender::new(Duration::from_millis(1), 1);
        tx.begin(3);
        assert!(matches!(tx.on_timeout(), SenderStep::Transmit(_)));
        // An ack showing progress arrives: budget resets.
        let mut b = AckBitmap::all_missing(3);
        b.mark_received(0);
        b.mark_received(1);
        assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Transmit(vec![2]));
        assert!(matches!(tx.on_timeout(), SenderStep::Transmit(_)));
        assert!(matches!(tx.on_timeout(), SenderStep::Failed(_)));
    }

    /// A path that always loses SDU 1 and always delivers the end SDU
    /// answers every round with the same bitmap. That is not progress: the
    /// budget runs down and the message fails.
    #[test]
    fn the_same_bitmap_again_does_not_refill_the_retry_budget() {
        let mut tx = SrSender::new(Duration::from_millis(1), 3);
        tx.begin(3);
        let mut stuck = AckBitmap::all_missing(3);
        stuck.mark_received(0);
        stuck.mark_received(2);
        for round in 0.. {
            assert!(round < 10, "a session that can never fail");
            assert_eq!(
                tx.on_ack(AckInfo::Bitmap(stuck.clone())),
                SenderStep::Transmit(vec![1])
            );
            match tx.on_timeout() {
                SenderStep::Transmit(_) => {}
                SenderStep::Failed(_) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A timeout that fires before the first bitmap comes back sends a
    /// probe whose answer, written before the repair arrived, shows the
    /// same hole: it is repaired once. A repair that is lost shows on the
    /// answer to the next probe, and is repaired again then.
    #[test]
    fn a_hole_is_repaired_once_per_bitmap_written_after_the_repair() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        tx.begin(2);
        let mut hole = AckBitmap::all_missing(2);
        hole.mark_received(1);
        assert_eq!(tx.on_timeout(), SenderStep::Transmit(vec![1]));
        let answer = || AckInfo::Bitmap(hole.clone());
        assert_eq!(tx.on_ack(answer()), SenderStep::Transmit(vec![0]));
        assert_eq!(tx.on_ack(answer()), SenderStep::Wait, "repaired twice");
        // The repair was lost: the next probe's answer still shows it.
        assert_eq!(tx.on_timeout(), SenderStep::Transmit(vec![1]));
        assert_eq!(tx.on_ack(answer()), SenderStep::Transmit(vec![0]));
        let clean = AckInfo::Bitmap(AckBitmap::all_received(2));
        assert_eq!(tx.on_ack(clean), SenderStep::Done);
    }

    /// A probe sends what a timeout sends and spends nothing.
    #[test]
    fn probes_do_not_spend_the_retry_budget() {
        let mut tx = SrSender::new(Duration::from_millis(1), 1);
        tx.begin(4);
        for _ in 0..10 {
            assert_eq!(tx.on_probe(), SenderStep::Transmit(vec![3]));
        }
        assert_eq!(tx.on_timeout(), SenderStep::Transmit(vec![3]));
        assert!(matches!(tx.on_timeout(), SenderStep::Failed(_)));
    }

    #[test]
    fn duplicate_packets_are_idempotent() {
        let mut rx = SrReceiver::new();
        rx.on_packet(0, false, payload(0));
        rx.on_packet(0, false, payload(0));
        match rx.on_packet(1, true, payload(1)) {
            ReceiverStep::AckAndDeliver(_, msg) => assert_eq!(msg.len(), 8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_ack_with_wrong_total_ignored() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        tx.begin(5);
        let stale = AckBitmap::all_received(3);
        assert_eq!(tx.on_ack(AckInfo::Bitmap(stale)), SenderStep::Wait);
    }

    #[test]
    fn single_packet_message() {
        let mut tx = SrSender::new(Duration::from_millis(10), 3);
        let mut rx = SrReceiver::new();
        assert_eq!(tx.begin(1), SenderStep::Transmit(vec![0]));
        match rx.on_packet(0, true, payload(9)) {
            ReceiverStep::AckAndDeliver(AckInfo::Bitmap(b), msg) => {
                assert_eq!(msg, payload(9));
                assert_eq!(tx.on_ack(AckInfo::Bitmap(b)), SenderStep::Done);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn receiver_resets_between_sessions() {
        let mut rx = SrReceiver::new();
        match rx.on_packet(0, true, payload(1)) {
            ReceiverStep::AckAndDeliver(..) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Next session starts clean.
        assert_eq!(rx.on_packet(0, false, payload(2)), ReceiverStep::Continue);
        match rx.on_packet(1, true, payload(3)) {
            ReceiverStep::AckAndDeliver(_, msg) => {
                assert_eq!(msg, [payload(2), payload(3)].concat());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
