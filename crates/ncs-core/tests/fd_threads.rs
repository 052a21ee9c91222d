//! Who waits on the sockets: each shard, on its own tasks' descriptors,
//! under both packages. A kernel-level shard parks in its epoll set; a
//! green shard parks in its scheduler, which polls the set for it. So SCI
//! listeners and connections need no thread beside
//! the shards — and under the user-level package, whose shards are green
//! threads on the scheduler's own OS thread, no OS thread at all. This
//! file holds ONE test on purpose: it reads the threads of the whole
//! process.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::collections::BTreeMap;
use std::sync::Arc;

use ncs_core::link::SciLink;
use ncs_core::{ConnectionConfig, NcsNode};
use ncs_threads::{KernelPackage, ThreadPackage, UserRuntime};
use ncs_transport::sci::SciListener;

/// Every thread of this process: its id and its name.
fn threads() -> BTreeMap<String, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|t| {
            let t = t.ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            Some((
                t.file_name().into_string().ok()?,
                comm.trim_end().to_owned(),
            ))
        })
        .collect()
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

/// No thread beside the shards waits on a socket.
fn no_poller_thread() {
    let names: Vec<String> = threads().into_values().collect();
    assert!(!names.iter().any(|n| n == "ncs-fd-poller"), "{names:?}");
}

#[test]
fn no_thread_but_the_shards_waits_on_the_sockets() {
    let kernel: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    let (a, b) = sci_pair(&kernel);
    round_trip(&a, &b);
    no_poller_thread();
    a.shutdown();
    b.shutdown();

    UserRuntime::default().run(|green| {
        let green: Arc<dyn ThreadPackage> = Arc::new(green);
        let before = threads();
        let (a, b) = sci_pair(&green);
        round_trip(&a, &b);
        no_poller_thread();
        let started: Vec<_> = threads()
            .into_iter()
            .filter(|(id, _)| !before.contains_key(id))
            .collect();
        assert!(started.is_empty(), "threads started: {started:?}");
        a.shutdown();
        b.shutdown();
    });
}
