//! End-to-end tests of the ATM simulator in deterministic virtual time,
//! plus real-time pump tests.

use std::sync::Arc;
use std::time::Duration;

use atm_sim::{
    AtmError, FaultSpec, LinkSpec, NetEvent, Network, NetworkBuilder, PumpConfig, QosParams,
    RealTimePump, SimTime,
};

/// host A -- switch -- host B with OC-3 links.
fn star() -> Network {
    NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .expect("valid topology")
}

/// Establishes a VC from "a" to "b" and returns (net, established record).
fn star_with_vc() -> (Network, atm_sim::EstablishedVc) {
    let mut net = star();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(10);
    let vc = net.established(ticket).expect("signaling must complete");
    (net, vc)
}

#[test]
fn signaling_establishes_both_endpoints() {
    let mut net = star();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    let events = net.run_for_millis(10);
    let vc = net.established(ticket).unwrap();
    assert_eq!(vc.local, net.node_id("a").unwrap());
    assert_eq!(vc.peer, net.node_id("b").unwrap());
    assert!(events
        .iter()
        .any(|e| matches!(e, NetEvent::IncomingVc { host, .. } if *host == vc.peer)));
    assert!(events
        .iter()
        .any(|e| matches!(e, NetEvent::VcEstablished { ticket: t, .. } if *t == ticket)));
    assert_eq!(net.stats().setups, 1);
}

#[test]
fn setup_takes_nonzero_signaling_time() {
    let mut net = star();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    // 2 links, per-hop processing + propagation each way: must not be instant.
    net.run_until(SimTime::from_micros(100));
    assert!(net.established(ticket).is_none());
    net.run_for_millis(10);
    assert!(net.established(ticket).is_some());
}

#[test]
fn frame_round_trips_through_switch() {
    let (mut net, vc) = star_with_vc();
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    net.send_frame(vc.local, vc.conn, payload.clone()).unwrap();
    let events = net.run_for_millis(100);
    let frames: Vec<&Vec<u8>> = events
        .iter()
        .filter_map(|e| match e {
            NetEvent::Frame { frame, host, .. } if *host == vc.peer => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0], &payload);
}

#[test]
fn both_directions_work() {
    let (mut net, vc) = star_with_vc();
    net.send_frame(vc.local, vc.conn, b"ping".to_vec()).unwrap();
    let events = net.run_for_millis(50);
    assert!(events
        .iter()
        .any(|e| matches!(e, NetEvent::Frame { frame, .. } if frame.as_slice() == b"ping")));
    // Reply on the reverse direction of the same VC.
    net.send_frame(vc.peer, vc.peer_conn, b"pong".to_vec())
        .unwrap();
    let events = net.run_for_millis(50);
    assert!(events.iter().any(|e| matches!(
        e,
        NetEvent::Frame { frame, host, .. }
            if frame.as_slice() == b"pong" && *host == vc.local
    )));
}

#[test]
fn delivery_latency_reflects_bandwidth_and_propagation() {
    let (mut net, vc) = star_with_vc();
    let t0 = net.now();
    let frame = vec![0u8; 48 * 100]; // ~101 cells
    net.send_frame(vc.local, vc.conn, frame).unwrap();
    let events = net.run_for_millis(100);
    let at = events
        .iter()
        .find_map(|e| match e {
            NetEvent::Frame { at, .. } => Some(*at),
            _ => None,
        })
        .expect("frame delivered");
    let latency = at - t0;
    // ~101 cells * 2.73 us serialization + 2 * 50 us propagation (+ switch
    // store-and-forward of the last cell).
    assert!(latency > Duration::from_micros(300), "latency {latency:?}");
    assert!(latency < Duration::from_millis(2), "latency {latency:?}");
}

#[test]
fn back_to_back_frames_queue_at_line_rate() {
    let (mut net, vc) = star_with_vc();
    let t0 = net.now();
    for _ in 0..10 {
        net.send_frame(vc.local, vc.conn, vec![7u8; 4096]).unwrap();
    }
    let events = net.run_for_millis(200);
    let arrivals: Vec<SimTime> = events
        .iter()
        .filter_map(|e| match e {
            NetEvent::Frame { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert_eq!(arrivals.len(), 10);
    // 4 KB + overhead = 86 cells ~ 234 us serialization each; ten frames
    // must take at least ~2.3 ms of line time.
    let last = *arrivals.last().unwrap() - t0;
    assert!(last > Duration::from_millis(2), "last arrival {last:?}");
    // Arrivals must be strictly increasing (FIFO VC order).
    for w in arrivals.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn pcr_shaping_slows_delivery() {
    let mut unshaped = star();
    let t1 = unshaped
        .open_vc("a", "b", QosParams::unspecified())
        .unwrap();
    unshaped.run_for_millis(10);
    let vc1 = unshaped.established(t1).unwrap();
    let base = unshaped.now();
    unshaped
        .send_frame(vc1.local, vc1.conn, vec![1u8; 4800])
        .unwrap();
    let ev = unshaped.run_for_millis(2000);
    let unshaped_latency = ev
        .iter()
        .find_map(|e| match e {
            NetEvent::Frame { at, .. } => Some(*at - base),
            _ => None,
        })
        .unwrap();

    let mut shaped = star();
    // 10k cells/s PCR: 101 cells take ~10 ms instead of ~0.3 ms.
    let t2 = shaped.open_vc("a", "b", QosParams::cbr(10_000)).unwrap();
    shaped.run_for_millis(10);
    let vc2 = shaped.established(t2).unwrap();
    let base = shaped.now();
    shaped
        .send_frame(vc2.local, vc2.conn, vec![1u8; 4800])
        .unwrap();
    let ev = shaped.run_for_millis(2000);
    let shaped_latency = ev
        .iter()
        .find_map(|e| match e {
            NetEvent::Frame { at, .. } => Some(*at - base),
            _ => None,
        })
        .unwrap();
    assert!(
        shaped_latency > unshaped_latency * 5,
        "shaped {shaped_latency:?} vs unshaped {unshaped_latency:?}"
    );
}

#[test]
fn cell_loss_surfaces_as_frame_errors() {
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link(
            "a",
            "sw",
            LinkSpec::oc3().with_fault(FaultSpec::cell_loss(0.05, 1234)),
        )
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .unwrap();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(10);
    let vc = net.established(ticket).unwrap();
    for _ in 0..50 {
        net.send_frame(vc.local, vc.conn, vec![9u8; 8192]).unwrap();
    }
    let events = net.run_for_millis(2000);
    let ok = events
        .iter()
        .filter(|e| matches!(e, NetEvent::Frame { .. }))
        .count();
    let failed = events
        .iter()
        .filter(|e| matches!(e, NetEvent::FrameError { .. }))
        .count();
    // 8 KB = ~171 cells; at 5% cell loss virtually every frame dies.
    assert!(failed > 40, "failed={failed} ok={ok}");
    assert!(net.stats().cells_lost > 0);
}

#[test]
fn bit_errors_fail_crc_but_deliver_headers() {
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link(
            "a",
            "sw",
            LinkSpec::oc3().with_fault(FaultSpec::bit_error(1.0, 7)),
        )
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .unwrap();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(10);
    let vc = net.established(ticket).unwrap();
    net.send_frame(vc.local, vc.conn, vec![0xAB; 1000]).unwrap();
    let events = net.run_for_millis(100);
    assert!(events
        .iter()
        .any(|e| matches!(e, NetEvent::FrameError { .. })));
    assert!(net.stats().cells_corrupted > 0);
    assert_eq!(net.stats().cells_lost, 0);
}

#[test]
fn congestion_drops_when_queue_tiny() {
    // Fast host links into a switch with a tiny output queue towards a slow
    // destination link.
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link(
            "b",
            "sw",
            LinkSpec::oc3()
                .with_bandwidth(10_000_000) // 10 Mb/s bottleneck
                .with_queue(8),
        )
        .build()
        .unwrap();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(10);
    let vc = net.established(ticket).unwrap();
    for _ in 0..20 {
        net.send_frame(vc.local, vc.conn, vec![1u8; 16 * 1024])
            .unwrap();
    }
    net.run_for_millis(5000);
    assert!(
        net.stats().cells_dropped_congestion > 0,
        "expected congestion drops: {}",
        net.stats()
    );
}

#[test]
fn multi_switch_route_works() {
    // a -- s1 -- s2 -- s3 -- b
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("s1")
        .switch("s2")
        .switch("s3")
        .link("a", "s1", LinkSpec::oc3())
        .link("s1", "s2", LinkSpec::oc3_wan(5))
        .link("s2", "s3", LinkSpec::oc3_wan(5))
        .link("s3", "b", LinkSpec::oc3())
        .build()
        .unwrap();
    let ticket = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(100);
    let vc = net.established(ticket).unwrap();
    let t0 = net.now();
    net.send_frame(vc.local, vc.conn, b"across the wan".to_vec())
        .unwrap();
    let events = net.run_for_millis(100);
    let at = events
        .iter()
        .find_map(|e| match e {
            NetEvent::Frame { at, frame, .. } if frame.as_slice() == b"across the wan" => Some(*at),
            _ => None,
        })
        .expect("frame must cross 3 switches");
    // Two 5 ms WAN hops dominate: latency >= 10 ms.
    assert!(at - t0 >= Duration::from_millis(10));
}

#[test]
fn vcis_differ_per_link_segment() {
    // Two VCs through the same switch must not collide, and data on both
    // must demultiplex correctly.
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .host("c")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link("b", "sw", LinkSpec::oc3())
        .link("c", "sw", LinkSpec::oc3())
        .build()
        .unwrap();
    let t1 = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
    let t2 = net.open_vc("a", "c", QosParams::unspecified()).unwrap();
    let t3 = net.open_vc("c", "b", QosParams::unspecified()).unwrap();
    net.run_for_millis(20);
    let v1 = net.established(t1).unwrap();
    let v2 = net.established(t2).unwrap();
    let v3 = net.established(t3).unwrap();
    net.send_frame(v1.local, v1.conn, b"to-b-from-a".to_vec())
        .unwrap();
    net.send_frame(v2.local, v2.conn, b"to-c-from-a".to_vec())
        .unwrap();
    net.send_frame(v3.local, v3.conn, b"to-b-from-c".to_vec())
        .unwrap();
    let events = net.run_for_millis(100);
    let by_host = |name: &str, body: &[u8]| {
        let id = net.node_id(name).unwrap();
        events.iter().any(|e| {
            matches!(
                e,
                NetEvent::Frame { host, frame, .. } if *host == id && frame.as_slice() == body
            )
        })
    };
    assert!(by_host("b", b"to-b-from-a"));
    assert!(by_host("c", b"to-c-from-a"));
    assert!(by_host("b", b"to-b-from-c"));
}

#[test]
fn release_tears_down_and_stops_data() {
    let (mut net, vc) = star_with_vc();
    net.close_vc(vc.local, vc.conn).unwrap();
    let events = net.run_for_millis(10);
    assert!(events
        .iter()
        .any(|e| matches!(e, NetEvent::VcReleased { host, .. } if *host == vc.peer)));
    // Sending on the released conn now fails.
    assert_eq!(
        net.send_frame(vc.local, vc.conn, b"x".to_vec()),
        Err(AtmError::NotActive(vc.conn))
    );
    assert_eq!(net.stats().releases, 1);
}

#[test]
fn no_route_is_synchronous_error() {
    let mut net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("s1")
        .switch("s2")
        .link("a", "s1", LinkSpec::oc3())
        .link("b", "s2", LinkSpec::oc3())
        .build()
        .unwrap();
    let err = net.open_vc("a", "b", QosParams::unspecified());
    assert!(matches!(err, Err(AtmError::NoRoute(_, _))));
}

#[test]
fn unknown_conn_and_node_errors() {
    let (mut net, vc) = star_with_vc();
    assert!(matches!(
        net.open_vc("a", "ghost", QosParams::unspecified()),
        Err(AtmError::UnknownNode(_))
    ));
    let bogus = atm_sim::ConnId::from_raw(999);
    assert!(matches!(
        net.send_frame(vc.local, bogus, b"x".to_vec()),
        Err(AtmError::UnknownConn(_, _))
    ));
    let sw = net.node_id("sw").unwrap();
    assert!(matches!(
        net.open_vc_ids(sw, vc.peer, QosParams::unspecified()),
        Err(AtmError::NotAHost(_))
    ));
}

#[test]
fn oversized_frame_rejected() {
    let (mut net, vc) = star_with_vc();
    assert!(matches!(
        net.send_frame(vc.local, vc.conn, vec![0u8; 70_000]),
        Err(AtmError::BadFrame(_))
    ));
}

#[test]
fn determinism_same_seed_same_outcome() {
    let run = || {
        let mut net = NetworkBuilder::new()
            .host("a")
            .host("b")
            .switch("sw")
            .link(
                "a",
                "sw",
                LinkSpec::oc3().with_fault(FaultSpec::cell_loss(0.02, 99)),
            )
            .link("b", "sw", LinkSpec::oc3())
            .build()
            .unwrap();
        let t = net.open_vc("a", "b", QosParams::unspecified()).unwrap();
        net.run_for_millis(10);
        let vc = net.established(t).unwrap();
        for i in 0..30 {
            net.send_frame(vc.local, vc.conn, vec![i as u8; 4096])
                .unwrap();
        }
        net.run_for_millis(1000);
        net.stats()
    };
    assert_eq!(run(), run());
}

#[test]
fn conn_stats_track_traffic() {
    let (mut net, vc) = star_with_vc();
    net.send_frame(vc.local, vc.conn, vec![1u8; 4096]).unwrap();
    net.run_for_millis(100);
    let tx = net.conn_stats(vc.local, vc.conn).unwrap();
    let rx = net.conn_stats(vc.peer, vc.peer_conn).unwrap();
    assert_eq!(tx.frames_sent, 1);
    assert!(tx.cells_sent > 80);
    assert_eq!(rx.frames_received, 1);
    assert_eq!(rx.cells_received, tx.cells_sent);
    assert!(net.conn_peer(vc.local, vc.conn).unwrap().0 == vc.peer);
}

#[test]
fn quiescence_after_traffic() {
    let (mut net, vc) = star_with_vc();
    net.send_frame(vc.local, vc.conn, vec![1u8; 1024]).unwrap();
    net.run_to_quiescence(1_000_000);
    assert!(net.is_quiescent());
    assert_eq!(net.pending_events(), 0);
}

// ---------------------------------------------------------------------------
// Real-time pump
// ---------------------------------------------------------------------------

struct Collector {
    events: parking_lot::Mutex<Vec<NetEvent>>,
    cv: parking_lot::Condvar,
}

impl Collector {
    fn new() -> Arc<Self> {
        Arc::new(Collector {
            events: parking_lot::Mutex::new(Vec::new()),
            cv: parking_lot::Condvar::new(),
        })
    }

    /// Waits for an event `pred` picks, running the pump meanwhile: it
    /// owns no thread, so the waiter wakes when its next event falls due.
    fn wait_for<F: Fn(&NetEvent) -> bool>(
        &self,
        pump: &RealTimePump,
        pred: F,
        timeout: Duration,
    ) -> Option<NetEvent> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let due = pump.advance().map_or(deadline, |at| at.min(deadline));
            let mut events = self.events.lock();
            if let Some(e) = events.iter().find(|e| pred(e)) {
                return Some(e.clone());
            }
            let timed_out = self.cv.wait_until(&mut events, due).timed_out();
            if timed_out && std::time::Instant::now() >= deadline {
                return None;
            }
        }
    }
}

impl atm_sim::DeliverySink for Collector {
    fn deliver(&self, event: NetEvent) {
        self.events.lock().push(event);
        self.cv.notify_all();
    }
}

#[test]
fn pump_delivers_frames_in_real_time() {
    let net = star();
    let pump = RealTimePump::start(net, PumpConfig::default());
    let collector = Collector::new();
    pump.set_sink(collector.clone());

    let a = pump.node_id("a").unwrap();
    let b = pump.node_id("b").unwrap();
    let ticket = pump.open_vc(a, b, QosParams::unspecified()).unwrap();
    let est = collector
        .wait_for(
            &pump,
            |e| matches!(e, NetEvent::VcEstablished { ticket: t, .. } if *t == ticket),
            Duration::from_secs(5),
        )
        .expect("VC must establish in real time");
    let (conn, peer) = match est {
        NetEvent::VcEstablished { conn, peer, .. } => (conn, peer),
        _ => unreachable!(),
    };
    assert_eq!(peer, b);

    pump.send_frame(a, conn, b"realtime hello".to_vec())
        .unwrap();
    let frame = collector
        .wait_for(
            &pump,
            |e| matches!(e, NetEvent::Frame { frame, .. } if frame.as_slice() == b"realtime hello"),
            Duration::from_secs(5),
        )
        .expect("frame must arrive");
    assert!(matches!(frame, NetEvent::Frame { host, .. } if host == b));
    assert!(pump.stats().frames_delivered >= 1);
    pump.shutdown();
}

#[test]
fn pump_wan_latency_scales_with_time_scale() {
    // 20 ms virtual propagation at 4x speedup ~ 5+ ms wall.
    let net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3_wan(10))
        .link("b", "sw", LinkSpec::oc3_wan(10))
        .build()
        .unwrap();
    let pump = RealTimePump::start(net, PumpConfig::speedup(4.0));
    let collector = Collector::new();
    pump.set_sink(collector.clone());
    let a = pump.node_id("a").unwrap();
    let b = pump.node_id("b").unwrap();
    let ticket = pump.open_vc(a, b, QosParams::unspecified()).unwrap();
    let est = collector
        .wait_for(
            &pump,
            |e| matches!(e, NetEvent::VcEstablished { ticket: t, .. } if *t == ticket),
            Duration::from_secs(5),
        )
        .unwrap();
    let conn = match est {
        NetEvent::VcEstablished { conn, .. } => conn,
        _ => unreachable!(),
    };
    let start = std::time::Instant::now();
    pump.send_frame(a, conn, b"wan".to_vec()).unwrap();
    collector
        .wait_for(
            &pump,
            |e| matches!(e, NetEvent::Frame { frame, .. } if frame.as_slice() == b"wan"),
            Duration::from_secs(5),
        )
        .unwrap();
    let wall = start.elapsed();
    // 20 ms virtual one-way, scaled 4x faster => ~5 ms wall minimum.
    assert!(wall >= Duration::from_millis(4), "wall {wall:?}");
    pump.shutdown();
}

#[test]
fn pump_shutdown_is_idempotent() {
    let pump = RealTimePump::start(star(), PumpConfig::default());
    pump.shutdown();
    pump.shutdown();
}
