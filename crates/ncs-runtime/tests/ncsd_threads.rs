//! How many threads `ncsd` runs, and what it leaves behind when it
//! stops. ONE test on purpose: it counts the threads of the whole
//! *process* (see `service_threads.rs`).

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ncs_runtime::{MembershipConfig, RendezvousServer, RvMsg};
use ncs_transport::sci::{self, SciConnection};
use ncs_transport::Connection as _;

/// The names of the process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|task| {
            let comm = task.expect("task").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_owned()
        })
        .collect()
}

#[test]
fn stop_joins_every_thread_ncsd_started() {
    const WORLD: u32 = 64;
    let before = threads().len();
    let mut server =
        RendezvousServer::start_with("127.0.0.1:0", WORLD, MembershipConfig::fast()).expect("ncsd");
    let dial = || sci::connect_retry(server.addr(), Duration::from_secs(5)).expect("dial");
    // Greeted: served by now.
    let subscribe = |rank| -> SciConnection {
        let conn = dial();
        let subscribe = RvMsg::Subscribe {
            rank,
            incarnation: 0,
        };
        conn.send(&subscribe.encode()).expect("subscribe");
        conn.recv_timeout(Duration::from_secs(5)).expect("greeting");
        conn
    };
    let mut subscriptions: Vec<_> = (0..4).map(subscribe).collect();
    let at_4 = threads().len() - before;

    // A connection that never says anything (a port scanner, say), then
    // the other 60 subscribers: the last greeting comes after the silent
    // connection was accepted.
    let silent = dial();
    subscriptions.extend((4..WORLD).map(subscribe));
    let running = threads();
    assert_eq!(
        running.len() - before,
        at_4,
        "ncsd ran {at_4} threads for 4 subscribers, {} for {WORLD} and a silent connection: {running:?}",
        running.len() - before
    );
    assert!(
        !running.iter().any(|name| name == "ncsd-conn"),
        "a thread per connection: {running:?}"
    );

    server.stop();
    let stopped = Instant::now();
    while threads().len() > before {
        assert!(
            stopped.elapsed() < Duration::from_millis(100),
            "{} of ncsd's threads outlived stop() by 100 ms: {:?}",
            threads().len() - before,
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop((subscriptions, silent));
}
