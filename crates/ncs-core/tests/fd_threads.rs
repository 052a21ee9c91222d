//! Who waits on the sockets. Under the kernel-level package a shard waits
//! on its own tasks' descriptors, so SCI listeners, control channels and
//! data connections need no thread beside the shards. Under the user-level
//! package a green shard must not block in `epoll_wait`, so each reactor
//! runs one poller thread, started with its first registration and gone
//! with the reactor. This file holds ONE test on purpose: it reads the
//! threads of the whole process.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::link::SciLink;
use ncs_core::{ConnectionConfig, NcsNode};
use ncs_threads::{KernelPackage, ThreadPackage, UserRuntime};
use ncs_transport::sci::SciListener;

/// Threads of this process named as the user-level package's poller.
fn pollers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "ncs-fd-poller")
        .count()
}

/// Two nodes on `pkg`, linked over loopback SCI.
fn sci_pair(pkg: &Arc<dyn ThreadPackage>) -> (NcsNode, NcsNode) {
    let node = |name: &str| {
        NcsNode::builder(name)
            .thread_package(Arc::clone(pkg))
            .build()
    };
    let (a, b) = (node("ann"), node("ben"));
    let listen = || {
        let listener = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind"));
        let addr = listener.local_addr().expect("local_addr");
        (listener, addr)
    };
    let ((la, addr_a), (lb, addr_b)) = (listen(), listen());
    a.attach_peer("ben", SciLink::new(addr_b, la));
    b.attach_peer("ann", SciLink::new(addr_a, lb));
    (a, b)
}

/// A request and its reply over a fresh connection from `a` to `b`.
fn round_trip(a: &NcsNode, b: &NcsNode) {
    let conn_a = a
        .connect("ben", ConnectionConfig::unreliable())
        .expect("connect");
    let conn_b = b.accept_default().expect("accept");
    conn_a.isend(b"ping").and_then(|r| r.wait()).expect("send");
    assert_eq!(conn_b.recv().expect("recv"), b"ping");
    conn_b.isend(b"pong").and_then(|r| r.wait()).expect("send");
    assert_eq!(conn_a.recv().expect("recv"), b"pong");
}

#[test]
fn only_the_user_level_package_runs_a_poller_thread() {
    let kernel: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    let (a, b) = sci_pair(&kernel);
    round_trip(&a, &b);
    assert_eq!(pollers(), 0, "a kernel-package reactor ran a poller thread");
    a.shutdown();
    b.shutdown();

    UserRuntime::default().run(|green| {
        let green: Arc<dyn ThreadPackage> = Arc::new(green);
        let idle = NcsNode::builder("cat")
            .thread_package(Arc::clone(&green))
            .build();
        assert_eq!(pollers(), 0, "a poller thread before any registration");
        let (a, b) = sci_pair(&green);
        round_trip(&a, &b);
        assert_eq!(pollers(), 2, "one poller thread per watching reactor");
        for node in [a, b, idle] {
            node.shutdown();
        }
        // The bell stops each thread.
        let start = Instant::now();
        while pollers() > 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "poller left running"
            );
            green.sleep(Duration::from_millis(1));
        }
    });
}
