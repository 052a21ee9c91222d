//! What `ncsd` leaves behind when it stops. ONE test on purpose: it
//! counts the threads of the whole *process* (see `service_threads.rs`).

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ncs_runtime::{MembershipConfig, RendezvousServer, RvMsg};
use ncs_transport::sci;
use ncs_transport::Connection as _;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn stop_joins_every_thread_ncsd_started() {
    let before = threads();
    let mut server =
        RendezvousServer::start_with("127.0.0.1:0", 4, MembershipConfig::fast()).expect("ncsd");
    let dial = || sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    let subscriptions: Vec<_> = (0..4)
        .map(|rank| {
            let conn = dial();
            let subscribe = RvMsg::Subscribe {
                rank,
                incarnation: 0,
            };
            conn.send(&subscribe.encode()).expect("subscribe");
            conn.recv_timeout(Duration::from_secs(5)).expect("greeting");
            conn
        })
        .collect();
    // A connection that never says anything (a port scanner, say).
    let silent = dial();
    // The accept thread plus one reader per connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() < before + 6 {
        assert!(Instant::now() < deadline, "{} threads", threads());
        std::thread::sleep(Duration::from_millis(1));
    }

    server.stop();
    let stopped = Instant::now();
    while threads() > before {
        assert!(
            stopped.elapsed() < Duration::from_millis(100),
            "{} of ncsd's threads outlived stop() by 100 ms",
            threads() - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop((subscriptions, silent));
}
