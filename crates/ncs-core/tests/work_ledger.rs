//! The work a message costs, counted rather than timed: a reliable HPI
//! ping-pong and a bypass SCI ping-pong, 1,000 warmed round trips each,
//! with an echo thread that receives and sends back as the benchmark's
//! does. Per message (two per round trip) the ledger counts:
//!
//! * voluntary context switches of every thread of the process, read from
//!   `/proc/self/task/*/status`;
//! * the reactors' polls, wake-ups and fd reports ([`ReactorStats`]);
//! * allocations of every thread, through this binary's counting
//!   `#[global_allocator]`.
//!
//! Each count has a ceiling at what it read when it was set. A ceiling
//! that comes down is a result; one that goes up says so in CHANGES.md,
//! with the reason. ONE test on purpose: every count is the whole
//! process's. Its threads share one CPU under `SCHED_BATCH`, as the
//! benchmark's do: how often a thread sleeps depends on whether its peer
//! runs beside it, or pre-empts it when woken; then neither does.

#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncs_core::link::{HpiLinkPair, SciLink};
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, ReactorStats};
use ncs_transport::sci::SciListener;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 200;
const ROUND_TRIPS: u64 = 1_000;
const WAIT: Duration = Duration::from_secs(10);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_BATCH` of `<sched.h>`: a thread it wakes does not pre-empt it.
const SCHED_BATCH: i32 = 3;

/// Pins the calling thread, and every thread it starts from now on, to
/// the last CPU it may run on, under `SCHED_BATCH`.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable for `size` bytes, as the call is told.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    let (word, bit) = (0..mask.len() * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .map(|cpu| (cpu / 64, cpu % 64))
        .expect("a CPU to run on");
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable for `size` bytes, as the call is told.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
    // SAFETY: the priority is one valid `int` (0, as the policy needs).
    assert_eq!(unsafe { sched_setscheduler(0, SCHED_BATCH, &0) }, 0);
}

/// Voluntary context switches of every thread of this process, summed.
fn switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| {
            let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?;
            switches.trim().parse::<u64>().ok()
        })
        .sum()
}

/// One reading of every count the ledger keeps.
#[derive(Debug, Clone, Copy)]
struct Reading {
    switches: u64,
    polls: u64,
    wakeups: u64,
    fd_events: u64,
    allocations: u64,
}

fn read(nodes: &[&NcsNode]) -> Reading {
    let stats: Vec<ReactorStats> = nodes.iter().map(|n| n.reactor().stats()).collect();
    let sum = |f: fn(&ReactorStats) -> u64| stats.iter().map(f).sum();
    Reading {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        switches: switches(),
        polls: sum(|s| s.polls),
        wakeups: sum(|s| s.wakeups),
        fd_events: sum(|s| s.fd_events),
    }
}

/// Counts per message.
#[derive(Debug)]
struct Ledger {
    switches: f64,
    polls: f64,
    wakeups: f64,
    fd_events: f64,
    allocations: f64,
}

/// `ROUND_TRIPS` round trips of 64 B from `client` to an echo thread on
/// `server`, after `WARM_UP` of them: what they cost per message.
fn ping_pong(nodes: [&NcsNode; 2], client: &NcsConnection, server: &NcsConnection) -> Ledger {
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let (server, stop) = (server.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(msg) = server.recv_view(Duration::from_millis(50)) {
                    server.send(&msg).expect("echo");
                }
            }
        })
    };
    let ping = [7u8; 64];
    let round_trip = || {
        client.send(&ping).expect("send");
        let pong = client.recv_view(WAIT).expect("echo");
        assert_eq!(&*pong, &ping[..]);
    };
    (0..WARM_UP).for_each(|_| round_trip());
    let before = read(&nodes);
    (0..ROUND_TRIPS).for_each(|_| round_trip());
    let after = read(&nodes);
    stop.store(true, Ordering::Relaxed);
    echo.join().expect("echo thread");
    let per = |f: fn(&Reading) -> u64| (f(&after) - f(&before)) as f64 / (2 * ROUND_TRIPS) as f64;
    Ledger {
        switches: per(|r| r.switches),
        polls: per(|r| r.polls),
        wakeups: per(|r| r.wakeups),
        fd_events: per(|r| r.fd_events),
        allocations: per(|r| r.allocations),
    }
}

fn hpi_reliable() -> Ledger {
    let (a, b) = (
        NcsNode::builder("alice").build(),
        NcsNode::builder("bob").build(),
    );
    let (la, lb) = HpiLinkPair::create();
    a.attach_peer("bob", la);
    b.attach_peer("alice", lb);
    let ca = a
        .connect("bob", ConnectionConfig::reliable())
        .expect("connect");
    let cb = b.accept_default().expect("accept");
    let ledger = ping_pong([&a, &b], &ca, &cb);
    a.shutdown();
    b.shutdown();
    ledger
}

fn sci_bypass() -> Ledger {
    let (a, b) = (
        NcsNode::builder("ann").build(),
        NcsNode::builder("ben").build(),
    );
    let listen = || {
        let listener = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind"));
        let addr = listener.local_addr().expect("local_addr");
        (listener, addr)
    };
    let ((la, addr_a), (lb, addr_b)) = (listen(), listen());
    a.attach_peer("ben", SciLink::new(addr_b, la));
    b.attach_peer("ann", SciLink::new(addr_a, lb));
    let ca = a
        .connect("ben", ConnectionConfig::unreliable())
        .expect("connect");
    let cb = b.accept_default().expect("accept");
    let ledger = ping_pong([&a, &b], &ca, &cb);
    a.shutdown();
    b.shutdown();
    ledger
}

/// Asserts each count of `ledger` is at most its ceiling.
fn within(name: &str, ledger: &Ledger, ceilings: &Ledger) {
    let counts = [
        ("switches", ledger.switches, ceilings.switches),
        ("polls", ledger.polls, ceilings.polls),
        ("wakeups", ledger.wakeups, ceilings.wakeups),
        ("fd events", ledger.fd_events, ceilings.fd_events),
        ("allocations", ledger.allocations, ceilings.allocations),
    ];
    for (count, value, ceiling) in counts {
        assert!(
            value <= ceiling,
            "{name}: {count} per message {value:.3} > {ceiling}: {ledger:?}"
        );
    }
}

#[test]
fn the_two_ping_pongs_cost_no_more_than_their_ledger() {
    pin_to_one_cpu();
    let hpi = hpi_reliable();
    let sci = sci_bypass();
    println!("reliable HPI per message: {hpi:?}");
    println!("bypass SCI per message: {sci:?}");
    // The reliable HPI round trip: each side's receiver wakes once, and
    // each message's credit crosses both nodes' control tasks on their
    // event loops, which wake the connection's task for it — under a
    // credit window a waiting receiver does not run the task itself.
    // (160 runs in debug and release builds, half of them beside four
    // busy loops, read 2.04-2.87 switches, 3.04-3.56 polls and wake-ups,
    // 9.03 allocations: whether a shard is still awake for the next wake
    // varies.)
    let hpi_ceilings = Ledger {
        switches: 3.2,
        polls: 3.8,
        wakeups: 3.8,
        fd_events: 0.0,
        allocations: 9.1,
    };
    // The bypass SCI round trip: the waiting thread reads its own socket,
    // so it sleeps once per message and its event loop hears almost
    // nothing. (Read: 1.00-1.10 switches and polls, at most 0.015
    // wake-ups and fd reports, 6.03 allocations.)
    let sci_ceilings = Ledger {
        switches: 1.2,
        polls: 1.15,
        wakeups: 0.05,
        fd_events: 0.05,
        allocations: 6.1,
    };
    within("reliable HPI", &hpi, &hpi_ceilings);
    within("bypass SCI", &sci, &sci_ceilings);
}
