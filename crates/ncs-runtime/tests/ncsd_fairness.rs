//! `ncsd` serves a client that floods it in turn with every other one.
//! In a binary of its own: the flood keeps every CPU of a small host busy
//! for a second and a half, which would show in the millisecond bounds of
//! `membership.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_runtime::{rendezvous, MembershipConfig, RendezvousServer, RvMsg};
use ncs_transport::sci::{self, SciConnection};
use ncs_transport::{Connection as _, TransportError};

fn subscribe(server: &RendezvousServer, rank: u32) -> SciConnection {
    let conn = sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    let subscribe = RvMsg::Subscribe {
        rank,
        incarnation: 0,
    };
    conn.send(&subscribe.encode()).expect("subscribe");
    conn.recv_timeout(Duration::from_secs(5)).expect("greeting");
    conn
}

fn pulse(rank: u32, seq: u64) -> Vec<u8> {
    RvMsg::Heartbeat {
        rank,
        seq,
        nanos: 0,
    }
    .encode()
}

/// A subscriber that sends heartbeats in batches of 32 as fast as its
/// socket takes them, and reads every ack, owes nothing — so it is never
/// dropped — and always has frames waiting. A connection task stops after
/// a batch of frames and asks its socket to report again, in turn with
/// the others. Had it woken itself instead, the event loop would have run
/// it again before looking at any other socket: another subscriber's ack
/// then waited 0.2 to 3.6 s. The bound is a liveness bound: a fair loop
/// answers within a few milliseconds.
#[test]
fn a_subscriber_that_floods_and_reads_delays_no_other() {
    let server =
        RendezvousServer::start_with("127.0.0.1:0", 2, MembershipConfig::default()).expect("ncsd");
    let ncsd = server.addr();
    let register = |rank| {
        let addr = format!("127.0.0.1:{}", 42_000 + rank).parse().unwrap();
        std::thread::spawn(move || {
            rendezvous::register(ncsd, rank, 2, addr, Duration::from_secs(10))
        })
    };
    for h in [register(0), register(1)] {
        h.join().unwrap().expect("register");
    }
    let conn = subscribe(&server, 0);
    let flooder = Arc::new(subscribe(&server, 1));
    let stop = Arc::new(AtomicBool::new(false));
    let (f, st) = (Arc::clone(&flooder), Arc::clone(&stop));
    let sender = std::thread::spawn(move || {
        for batch in 0u64.. {
            let frames: Vec<Vec<u8>> = (0..32).map(|i| pulse(1, batch * 32 + i)).collect();
            let frames: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            if st.load(Ordering::Relaxed) || f.send_batch(&frames).is_err() {
                return batch * 32;
            }
        }
        unreachable!()
    });
    let (f, st) = (Arc::clone(&flooder), Arc::clone(&stop));
    let reader = std::thread::spawn(move || {
        let mut acks = 0;
        while !st.load(Ordering::Relaxed) {
            match f.recv_many(1024, Duration::from_millis(50)) {
                Ok(frames) => acks += frames.len(),
                Err(TransportError::Timeout) => {}
                Err(_) => break,
            }
        }
        acks
    });

    let t0 = Instant::now();
    let mut worst = Duration::ZERO;
    for seq in 1.. {
        if t0.elapsed() > Duration::from_millis(1500) {
            break;
        }
        let sent = Instant::now();
        conn.send(&pulse(0, seq)).expect("pulse");
        loop {
            let frame = conn
                .recv_timeout(Duration::from_secs(5))
                .expect("an ack within 5 s");
            if let RvMsg::HeartbeatAck { seq: s, .. } = RvMsg::decode(&frame).expect("decode") {
                if s == seq {
                    break;
                }
            }
        }
        worst = worst.max(sent.elapsed());
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    flooder.close();
    let (sent, acked) = (sender.join().unwrap(), reader.join().unwrap());
    assert!(
        sent > 10_000 && acked > 0,
        "the flooder sent {sent} pulses and read {acked} acks: no flood"
    );
    assert!(
        worst < Duration::from_millis(100),
        "a heartbeat waited {worst:?} for its ack beside a flooder that read its acks"
    );
}
