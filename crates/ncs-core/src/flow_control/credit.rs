//! Credit-based window flow control — the paper's default (Figures 7/8) —
//! kept as a cumulative credit edge.
//!
//! The receiver advertises an *edge*: "you may have released N fresh SDUs
//! since the connection opened", N = the SDUs it has taken plus its window
//! `W`. Both sides count a session by its high-water mark (`plane.rs`):
//! the sender counts only fresh SDUs against the edge — a retransmission
//! of an SDU already released is free — and the receiver takes every SDU
//! up to the highest it has seen, so a lost frame holds the window back
//! only until a later one arrives, and any later advertisement heals a
//! lost one (TCP's window edge, QUIC's MAX_DATA). Edges are wrapping
//! `u32`s.

use std::time::{Duration, Instant};

use super::FlowControlStrategy;
use crate::seq::{wrapping_after, wrapping_ahead};

/// Receiver-side activity window for dynamic window sizing.
const ACTIVITY_WINDOW: Duration = Duration::from_millis(20);

/// Bounds of the dynamic window, in multiples of the initial credits.
const MIN_GRANT: u32 = 1;
const MAX_GRANT: u32 = 8;

/// The widest window: edges are compared on a wrapping line, so one must
/// never lead another by half of it.
const MAX_WINDOW: u32 = 1 << 30;

/// Credit-based window flow control.
///
/// Sender side: `permits` = the highest edge advertised − the fresh SDUs
/// released (`on_transmit`); a stale, duplicated or reordered
/// advertisement moves nothing. Receiver side: `on_receive` notes one
/// arrival and returns the window `W` the plane adds to what it has taken
/// (`plane.rs`). With `dynamic`, connections receiving densely ("active
/// connections") widen `W` up to `MAX_GRANT` × the initial credits, idle
/// ones fall back to the initial credits — the paper's dynamic credit
/// maintenance, as a wider window rather than a larger grant per packet.
#[derive(Debug)]
pub struct CreditBased {
    /// Sender: the highest edge advertised (the initial window until then).
    edge: u32,
    /// Sender: fresh SDUs released since the connection opened.
    released: u32,
    initial: u32,
    dynamic: bool,
    /// Receiver: recent packet arrivals inside the activity window.
    recent: u32,
    window_start: Option<Instant>,
    /// Receiver: the window in multiples of `initial`.
    factor: u32,
}

impl CreditBased {
    /// A window of `initial_credits` SDUs, widened for active connections
    /// when `dynamic`.
    pub fn new(initial_credits: u32, dynamic: bool) -> Self {
        let initial = initial_credits.min(MAX_WINDOW / MAX_GRANT);
        CreditBased {
            edge: initial,
            released: 0,
            initial,
            dynamic,
            recent: 0,
            window_start: None,
            factor: MIN_GRANT,
        }
    }

    /// The widest window a receiver built with these arguments names.
    pub(crate) fn widest(initial_credits: u32, dynamic: bool) -> u32 {
        Self::new(initial_credits, dynamic).initial * if dynamic { MAX_GRANT } else { MIN_GRANT }
    }
}

impl FlowControlStrategy for CreditBased {
    fn permits(&mut self, _now: Instant) -> u32 {
        wrapping_ahead(self.edge, self.released)
    }

    fn on_transmit(&mut self, n: u32) {
        // A starvation probe may go one past the edge: `permits` reads 0
        // until an edge beyond it arrives.
        self.released = self.released.wrapping_add(n);
    }

    fn on_abandon(&mut self, n: u32) {
        self.released = self.released.wrapping_sub(n);
    }

    fn on_feedback(&mut self, edge: u32) {
        if wrapping_after(edge, self.edge) {
            self.edge = edge;
        }
    }

    fn on_receive(&mut self, now: Instant) -> u32 {
        if !self.dynamic {
            return self.initial;
        }
        // Track arrival density; densely active connections earn a wider
        // window, idle ones decay back to the initial one.
        match self.window_start {
            Some(start) if now.duration_since(start) <= ACTIVITY_WINDOW => {
                self.recent += 1;
            }
            _ => {
                self.factor = if self.recent >= 8 {
                    // Geometric ramp: active connections reach the full
                    // window within a few activity windows.
                    (self.factor * 2).min(MAX_GRANT)
                } else if self.recent <= 2 {
                    MIN_GRANT
                } else {
                    self.factor
                };
                self.window_start = Some(now);
                self.recent = 1;
            }
        }
        self.initial * self.factor
    }

    fn next_poll(&self, _now: Instant) -> Option<Instant> {
        None // only an advertisement unblocks the sender
    }

    fn name(&self) -> &'static str {
        "credit-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_consume_and_replenish() {
        let mut fc = CreditBased::new(4, false);
        let now = Instant::now();
        assert_eq!(fc.permits(now), 4);
        fc.on_transmit(3);
        assert_eq!(fc.permits(now), 1);
        fc.on_feedback(6); // two of the three taken: the edge is 2 + 4
        assert_eq!(fc.permits(now), 3);
        fc.on_abandon(1); // a session given up on holds nothing
        assert_eq!(fc.permits(now), 4);
    }

    /// A duplicated, late or reordered advertisement is an edge already
    /// passed: it changes nothing.
    #[test]
    fn a_stale_edge_changes_nothing() {
        let mut fc = CreditBased::new(2, false);
        let now = Instant::now();
        fc.on_transmit(2);
        fc.on_feedback(5);
        for stale in [2, 4, 5, 0] {
            fc.on_feedback(stale);
            assert_eq!(fc.permits(now), 3);
        }
    }

    /// Past the edge (a starvation probe) there are no permits, and the
    /// edge works across the wrap of its counters.
    #[test]
    fn permits_are_zero_past_the_edge_and_survive_the_wrap() {
        let mut fc = CreditBased::new(1, false);
        let now = Instant::now();
        fc.on_transmit(2);
        assert_eq!(fc.permits(now), 0);
        // Both counters go round the wrap, in steps under half their space.
        for _ in 0..4 {
            fc.on_transmit(1 << 30);
            fc.on_feedback(fc.released.wrapping_add(3));
            assert_eq!(fc.permits(now), 3);
        }
        assert_eq!(fc.released, 2, "the counters wrapped");
        fc.on_feedback(fc.released);
        assert_eq!(fc.permits(now), 3);
        // However wide a window is asked for, the edge stays comparable.
        let mut wide = CreditBased::new(u32::MAX, true);
        assert_eq!(wide.permits(now), MAX_WINDOW / MAX_GRANT);
        assert_eq!(wide.on_receive(now), MAX_WINDOW / MAX_GRANT);
    }

    /// With a fixed window every SDU taken moves the edge by exactly one.
    #[test]
    fn static_receiver_grants_one_per_packet() {
        let mut fc = CreditBased::new(4, false);
        let now = Instant::now();
        for taken in 0..10u32 {
            assert_eq!(taken + fc.on_receive(now), taken + 4);
        }
    }

    /// A fixed window (`dynamic` off): at most `initial_credits` SDUs
    /// released and not yet taken.
    #[test]
    fn a_fixed_window_limits_outstanding_sdus() {
        let (mut tx, mut rx) = (CreditBased::new(3, false), CreditBased::new(3, false));
        let now = Instant::now();
        assert_eq!(tx.permits(now), 3);
        tx.on_transmit(3);
        assert_eq!(tx.permits(now), 0);
        tx.on_feedback(2 + rx.on_receive(now)); // two of them taken
        assert_eq!(tx.permits(now), 2);
    }

    #[test]
    fn dynamic_receiver_grows_grants_for_active_connections() {
        let mut fc = CreditBased::new(4, true);
        let mut now = Instant::now();
        let mut windows = Vec::new();
        // Simulate a dense stream: many packets per activity window.
        for _ in 0..10 {
            for _ in 0..20 {
                windows.push(fc.on_receive(now));
                now += Duration::from_millis(2);
            }
            now += ACTIVITY_WINDOW + Duration::from_millis(1);
        }
        let first = windows.first().copied().unwrap();
        let last = windows.last().copied().unwrap();
        assert_eq!(first, 4);
        assert!(
            last > first,
            "the window must widen: first={first} last={last}"
        );
        assert_eq!(last, 4 * MAX_GRANT);
    }

    #[test]
    fn dynamic_receiver_decays_for_idle_connections() {
        let mut fc = CreditBased::new(4, true);
        let mut now = Instant::now();
        // Grow first.
        for _ in 0..10 {
            for _ in 0..20 {
                fc.on_receive(now);
                now += Duration::from_millis(2);
            }
            now += ACTIVITY_WINDOW + Duration::from_millis(1);
        }
        // Then go idle: single packets far apart.
        let mut window = 0;
        for _ in 0..5 {
            now += Duration::from_secs(1);
            window = fc.on_receive(now);
        }
        assert_eq!(window, 4 * MIN_GRANT);
    }

    #[test]
    fn no_timer_based_polling() {
        let fc = CreditBased::new(1, true);
        assert_eq!(fc.next_poll(Instant::now()), None);
    }
}
