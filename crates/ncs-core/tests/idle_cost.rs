//! What an idle world costs its event loops: nothing. A shard parks toward
//! the next deadline one of its tasks armed, or for as long as it takes
//! when there is none; every state change wakes it. This file holds ONE
//! test on purpose: it reads the threads of the whole process.

#![cfg(target_os = "linux")]

use std::time::Duration;

use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, NcsNode};

/// Voluntary context switches of this process's event-loop threads, summed.
fn event_loop_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !comm.starts_with("ncs-reactor-") {
                return None;
            }
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?;
            switches.trim().parse::<u64>().ok()
        })
        .sum()
}

/// Two nodes over HPI, one reliable connection between them, no traffic:
/// over a second, their four event loops sleep through. (A shard that woke
/// on a 100 ms tick would switch some 40 times here.)
#[test]
fn an_idle_world_leaves_its_event_loops_asleep() {
    let a = NcsNode::builder("alice").build();
    let b = NcsNode::builder("bob").build();
    let (la, lb) = HpiLinkPair::create();
    a.attach_peer("bob", la);
    b.attach_peer("alice", lb);
    let ca = a.connect("bob", ConnectionConfig::reliable()).unwrap();
    let cb = b.accept_default().unwrap();
    // What the set-up itself scheduled runs out first.
    std::thread::sleep(Duration::from_millis(100));
    let before = event_loop_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woke = event_loop_switches().saturating_sub(before);
    assert!(woke <= 2, "{woke} event-loop wake-ups in an idle second");
    // Asleep, not stuck: the connection still carries a message.
    ca.send(b"still here").unwrap();
    assert_eq!(
        cb.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"still here"
    );
    a.shutdown();
    b.shutdown();
}
