//! The per-connection **flight recorder**: a fixed-size, lock-free ring
//! of message-lifecycle events cheap enough to leave on in production.
//!
//! Each event packs into two `AtomicU64` words (timestamp-µs + length,
//! and kind + tag + seq); recording is one relaxed `fetch_add` to claim
//! a slot, two relaxed stores, and one `Instant::elapsed` call. A
//! runtime kill-switch reduces the whole path to a single relaxed load,
//! the "instrumentation off" baseline a recording-on/off comparison
//! measures against.
//!
//! Dumping is tear-tolerant by design: a reader may observe a slot
//! whose two words straddle a concurrent overwrite (the ring keeps no
//! per-slot locks). Such an event can pair the timestamp of one wrap
//! with the kind/tag of another — acceptable for a post-mortem
//! diagnostic, and the price of keeping the record path wait-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::json;

/// Default ring capacity (events per connection).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// A stage in the life of a message, in wire order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Application submitted a send (`isend`/`send`).
    Isend = 1,
    /// Message segmented into packets for the wire.
    Packetize = 2,
    /// Send stalled waiting for flow-control credit.
    FcWait = 3,
    /// Error-control session activity (ack processed).
    EcSession = 4,
    /// Packet handed to the transport.
    Wire = 5,
    /// Error control retransmitted packets.
    Retransmit = 6,
    /// Message delivered to the application-side delivery queue.
    Deliver = 7,
    /// The link failed or the peer vanished (fail-fast).
    LinkDown = 8,
    /// Slot content did not decode (torn or from an older version).
    Unknown = 0,
}

impl EventKind {
    fn from_u8(v: u8) -> EventKind {
        match v {
            1 => EventKind::Isend,
            2 => EventKind::Packetize,
            3 => EventKind::FcWait,
            4 => EventKind::EcSession,
            5 => EventKind::Wire,
            6 => EventKind::Retransmit,
            7 => EventKind::Deliver,
            8 => EventKind::LinkDown,
            _ => EventKind::Unknown,
        }
    }

    /// Stable lower-case name (used in dumps and docs).
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Isend => "isend",
            EventKind::Packetize => "packetize",
            EventKind::FcWait => "fc_wait",
            EventKind::EcSession => "ec_session",
            EventKind::Wire => "wire",
            EventKind::Retransmit => "retransmit",
            EventKind::Deliver => "deliver",
            EventKind::LinkDown => "link_down",
            EventKind::Unknown => "unknown",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder was created (40-bit, ~2 weeks).
    pub micros: u64,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Message tag (channel tags included).
    pub tag: u32,
    /// Packet sequence number where meaningful (24-bit, else 0).
    pub seq: u32,
    /// Payload length in bytes (24-bit, saturating).
    pub len: u32,
}

impl FlightEvent {
    /// Renders the event as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"us\":{},\"kind\":\"{}\",\"tag\":{},\"seq\":{},\"len\":{}}}",
            self.micros,
            self.kind.as_str(),
            self.tag,
            self.seq,
            self.len
        )
    }
}

struct Slot {
    /// `micros << 24 | len` (len saturated to 24 bits).
    a: AtomicU64,
    /// `kind << 56 | tag << 24 | seq` (seq saturated to 24 bits).
    /// Every recordable kind is non-zero, so `b == 0` means "empty".
    b: AtomicU64,
}

const LEN_MASK: u64 = (1 << 24) - 1;
const SEQ_MASK: u64 = (1 << 24) - 1;
const TAG_MASK: u64 = u32::MAX as u64;

struct FlightInner {
    origin: Instant,
    enabled: AtomicBool,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for FlightInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightInner")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

/// The flight recorder. Clones share the same ring.
#[derive(Clone, Debug)]
pub struct FlightRecorder(Arc<FlightInner>);

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder(Arc::new(FlightInner {
            origin: Instant::now(),
            enabled: AtomicBool::new(true),
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        }))
    }

    /// Runtime kill-switch. Disabled, [`record`](Self::record) is a
    /// single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.0.slots.len()
    }

    /// Total events recorded since creation (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.0.head.load(Ordering::Relaxed)
    }

    /// Records one lifecycle event ([`EventKind::Unknown`] is a no-op:
    /// its zero discriminant is reserved to mean "empty slot").
    #[inline]
    pub fn record(&self, kind: EventKind, tag: u32, seq: u32, len: usize) {
        let inner = &*self.0;
        if !inner.enabled.load(Ordering::Relaxed) || kind == EventKind::Unknown {
            return;
        }
        let micros = inner.origin.elapsed().as_micros() as u64;
        let a = (micros << 24) | (len as u64).min(LEN_MASK);
        let b = ((kind as u64) << 56) | ((tag as u64) << 24) | (seq as u64).min(SEQ_MASK);
        let idx = inner.head.fetch_add(1, Ordering::Relaxed) as usize % inner.slots.len();
        inner.slots[idx].a.store(a, Ordering::Relaxed);
        inner.slots[idx].b.store(b, Ordering::Relaxed);
    }

    /// Decodes the ring's current contents, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let inner = &*self.0;
        let head = inner.head.load(Ordering::Relaxed) as usize;
        let cap = inner.slots.len();
        let mut out = Vec::with_capacity(cap.min(head));
        // Oldest surviving slot is at `head % cap` once the ring wraps.
        let (start, end) = if head >= cap {
            (head, head + cap)
        } else {
            (0, cap)
        };
        for i in start..end {
            let slot = &inner.slots[i % cap];
            let b = slot.b.load(Ordering::Relaxed);
            if b == 0 {
                continue; // never written
            }
            let a = slot.a.load(Ordering::Relaxed);
            out.push(FlightEvent {
                micros: a >> 24,
                len: (a & LEN_MASK) as u32,
                kind: EventKind::from_u8((b >> 56) as u8),
                tag: ((b >> 24) & TAG_MASK) as u32,
                seq: (b & SEQ_MASK) as u32,
            });
        }
        out
    }

    /// Renders the dump as a JSON array of event objects.
    pub fn dump_json(&self) -> String {
        let events: Vec<String> = self.dump().iter().map(FlightEvent::to_json).collect();
        format!("[{}]", events.join(","))
    }

    /// Renders a labelled dump object:
    /// `{"conn":"<label>","recorded":N,"events":[...]}`.
    pub fn dump_json_labelled(&self, label: &str) -> String {
        format!(
            "{{\"conn\":\"{}\",\"recorded\":{},\"events\":{}}}",
            json::escape(label),
            self.recorded(),
            self.dump_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let r = FlightRecorder::new(8);
        r.record(EventKind::Isend, 7, 0, 64);
        r.record(EventKind::Wire, 7, 3, 64);
        r.record(EventKind::Deliver, 7, 3, 64);
        let d = r.dump();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].kind, EventKind::Isend);
        assert_eq!(d[2].kind, EventKind::Deliver);
        assert_eq!(d[1].seq, 3);
        assert_eq!(d[0].tag, 7);
        assert_eq!(d[0].len, 64);
        assert!(d[0].micros <= d[2].micros);
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let r = FlightRecorder::new(4);
        for i in 0..10u32 {
            r.record(EventKind::Wire, i, i, 1);
        }
        let d = r.dump();
        assert_eq!(d.len(), 4);
        let tags: Vec<u32> = d.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn kill_switch_stops_recording() {
        let r = FlightRecorder::new(4);
        r.set_enabled(false);
        r.record(EventKind::Isend, 0, 0, 0);
        assert!(r.dump().is_empty());
        assert_eq!(r.recorded(), 0);
        r.set_enabled(true);
        r.record(EventKind::Isend, 0, 0, 0);
        assert_eq!(r.dump().len(), 1);
    }

    #[test]
    fn zero_event_still_visible() {
        // (tag=0, seq=0, len=0) must not look like an empty slot.
        let r = FlightRecorder::new(4);
        r.record(EventKind::Isend, 0, 0, 0);
        let d = r.dump();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, EventKind::Isend);
    }

    #[test]
    fn saturates_len_and_seq() {
        let r = FlightRecorder::new(2);
        r.record(EventKind::Wire, u32::MAX, u32::MAX, usize::MAX);
        let d = r.dump();
        assert_eq!(d[0].tag, u32::MAX);
        assert_eq!(d[0].seq, (1 << 24) - 1);
        assert_eq!(d[0].len, (1 << 24) - 1);
    }

    #[test]
    fn json_dump_shape() {
        let r = FlightRecorder::new(4);
        r.record(EventKind::FcWait, 1, 2, 3);
        let j = r.dump_json_labelled("1->rank1");
        assert!(j.contains("\"conn\":\"1->rank1\""), "{j}");
        assert!(j.contains("\"kind\":\"fc_wait\""), "{j}");
        assert!(j.contains("\"recorded\":1"), "{j}");
    }

    #[test]
    fn concurrent_recording_loses_nothing_structurally() {
        let r = FlightRecorder::new(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        r.record(EventKind::Wire, t, i, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.recorded(), 4000);
        assert_eq!(r.dump().len(), 64);
    }
}
