//! The work a message costs, counted rather than timed: a reliable HPI
//! ping-pong and a bypass SCI ping-pong, 1,000 warmed round trips each,
//! with an echo thread that receives and sends back as the benchmark's
//! does; a reliable HPI stream of 8-byte messages in windows of 64 on a
//! channel, 100 warmed windows, whose sink posts a window of receives and
//! waits for them as the benchmark's does; the same stream of 64 KiB
//! messages in windows of 4, 100 warmed windows; and the benchmark's
//! lossy ACI stream, 16 and 12 KiB messages in windows of 2 at 0.1 % cell
//! loss on a fixed seed, 90 warmed windows. Per message (two per round
//! trip) the ledger counts:
//!
//! * voluntary context switches of every thread of the process, read from
//!   `/proc/self/task/*/status`;
//! * the reactors' polls, wake-ups and fd reports ([`ReactorStats`]);
//! * allocations of every thread, and the bytes they asked for, through
//!   this binary's counting `#[global_allocator]` — all but the ledger's
//!   own reading of `/proc`.
//!
//! Each count has a ceiling at what it read when it was set. A ceiling
//! that comes down is a result; one that goes up says so in CHANGES.md,
//! with the reason. ONE test on purpose: every count is the whole
//! process's. Its threads share one CPU under `SCHED_BATCH`, as the
//! benchmark's do: how often a thread sleeps depends on whether its peer
//! runs beside it, or pre-empts it when woken; then neither does.

#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs_core::link::{AciLink, HpiLinkPair, SciLink};
use ncs_core::{
    Channel, ConnectionConfig, MsgView, NcsConnection, NcsNode, ReactorStats, Request, SendError,
};
use ncs_transport::aci::AciFabric;
use ncs_transport::sci::SciListener;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The thread is reading the counts: what it allocates is not counted.
    static READING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation of `bytes`, unless the ledger itself makes it.
fn count(bytes: usize) {
    if !READING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    bytes: u64,
}

fn read(nodes: &[&NcsNode]) -> Reading {
    READING.set(true);
    let stats: Vec<ReactorStats> = nodes.iter().map(|n| n.reactor().stats()).collect();
    let sum = |f: fn(&ReactorStats) -> u64| stats.iter().map(f).sum();
    let reading = Reading {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        switches: switches(),
        polls: sum(|s| s.polls),
        wakeups: sum(|s| s.wakeups),
        fd_events: sum(|s| s.fd_events),
    };
    READING.set(false);
    reading
}

/// Counts per message.
#[derive(Debug)]
struct Ledger {
    switches: f64,
    polls: f64,
    wakeups: f64,
    fd_events: f64,
    allocations: f64,
    bytes: f64,
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
        bytes: per(|r| r.bytes),
    }
}

/// Where a windowed stream runs: a connection's untagged messages, or
/// one of its channels.
enum Lane {
    Conn(NcsConnection),
    Chan(Channel),
}

impl Lane {
    fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        match self {
            Lane::Conn(c) => c.isend(data),
            Lane::Chan(c) => c.isend(data),
        }
    }

    fn irecv(&self) -> Request<MsgView> {
        match self {
            Lane::Conn(c) => c.irecv(),
            Lane::Chan(c) => c.irecv(),
        }
    }
}

/// A windowed stream: windows of `window` messages, whose lengths cycle
/// through `lens`, `warm_up` of them and then `count`.
struct Windows {
    lens: &'static [usize],
    window: usize,
    warm_up: u64,
    count: u64,
}

/// `count` windows of `shape` from `client` to a sink thread on `server`,
/// after `warm_up` of them: what they cost per message. Each window's
/// sends are waited for before the next goes; the sink posts a window of
/// receives at a time, as the benchmark's does.
fn windows(nodes: [&NcsNode; 2], client: Lane, server: Lane, shape: &'static Windows) -> Ledger {
    let stop = Arc::new(AtomicBool::new(false));
    let received = Arc::new(AtomicU64::new(0));
    let sink = {
        let (stop, received) = (Arc::clone(&stop), Arc::clone(&received));
        std::thread::spawn(move || 'windows: loop {
            let posted: Vec<_> = (0..shape.window).map(|_| server.irecv()).collect();
            for request in &posted {
                loop {
                    match request.wait_timeout(Duration::from_millis(50)) {
                        Ok(msg) => break assert!(shape.lens.contains(&msg.len())),
                        Err(SendError::Timeout) if !stop.load(Ordering::Relaxed) => {}
                        Err(SendError::Timeout) => break 'windows,
                        Err(e) => panic!("sink: {e}"),
                    }
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let payloads: Vec<Vec<u8>> = (0..shape.window)
        .map(|i| vec![i as u8; shape.lens[i % shape.lens.len()]])
        .collect();
    let window = |n: u64| {
        let sent: Vec<_> = payloads
            .iter()
            .map(|msg| client.isend(msg).expect("isend"))
            .collect();
        sent.into_iter()
            .for_each(|r| r.wait_timeout(WAIT).expect("sent"));
        // The sink has taken the window too.
        let taken = n * shape.window as u64;
        while received.load(Ordering::Relaxed) < taken {
            std::thread::yield_now();
        }
    };
    (1..=shape.warm_up).for_each(window);
    let before = read(&nodes);
    (shape.warm_up + 1..=shape.warm_up + shape.count).for_each(window);
    let after = read(&nodes);
    stop.store(true, Ordering::Relaxed);
    sink.join().expect("sink thread");
    let messages = shape.count * shape.window as u64;
    let per = |f: fn(&Reading) -> u64| (f(&after) - f(&before)) as f64 / messages as f64;
    Ledger {
        switches: per(|r| r.switches),
        polls: per(|r| r.polls),
        wakeups: per(|r| r.wakeups),
        fd_events: per(|r| r.fd_events),
        allocations: per(|r| r.allocations),
        bytes: per(|r| r.bytes),
    }
}

/// 100 windows of 64 8-byte messages on channel 0, after 20.
fn stream(nodes: [&NcsNode; 2], client: &NcsConnection, server: &NcsConnection) -> Ledger {
    static STREAM: Windows = Windows {
        lens: &[8],
        window: 64,
        warm_up: 20,
        count: 100,
    };
    let lane = |conn: &NcsConnection| Lane::Chan(conn.channel(0));
    windows(nodes, lane(client), lane(server), &STREAM)
}

/// 100 windows of 4 64 KiB messages on the connection, after 20.
fn bulk(nodes: [&NcsNode; 2], client: &NcsConnection, server: &NcsConnection) -> Ledger {
    static BULK: Windows = Windows {
        lens: &[64 * 1024],
        window: 4,
        warm_up: 20,
        count: 100,
    };
    let lane = |conn: &NcsConnection| Lane::Conn(conn.clone());
    windows(nodes, lane(client), lane(server), &BULK)
}

/// The benchmark's `aci_lossy_16K` in small: 16 and 12 KiB messages in
/// windows of 2 over a reliable connection on the ATM model — OC-3 links
/// through one switch, 0.1 % cell loss on a fixed seed on the sender's
/// link, run 8 times faster than real time — 200 messages in all, the
/// first 20 to warm up.
fn aci_lossy() -> Ledger {
    static LOSSY: Windows = Windows {
        lens: &[16 * 1024, 12 * 1024],
        window: 2,
        warm_up: 10,
        count: 90,
    };
    let fault = FaultSpec::cell_loss(0.001, 0xAC1_1055);
    let net = NetworkBuilder::new()
        .host("tx")
        .host("rx")
        .switch("sw")
        .link("tx", "sw", LinkSpec::oc3().with_fault(fault))
        .link("rx", "sw", LinkSpec::oc3())
        .build()
        .expect("network");
    let fabric = AciFabric::start(net, PumpConfig::speedup(8.0));
    let (a, b) = (
        NcsNode::builder("tx").build(),
        NcsNode::builder("rx").build(),
    );
    let device = |host| Arc::new(fabric.device(host).expect("device"));
    let qos = QosParams::unspecified;
    a.attach_peer("rx", AciLink::new(device("tx"), "rx", qos()));
    b.attach_peer("tx", AciLink::new(device("rx"), "tx", qos()));
    let ca = a
        .connect("rx", ConnectionConfig::reliable())
        .expect("connect");
    let cb = b.accept_default().expect("accept");
    let ledger = windows([&a, &b], Lane::Conn(ca), Lane::Conn(cb), &LOSSY);
    a.shutdown();
    b.shutdown();
    fabric.shutdown();
    ledger
}

/// A reliable HPI connection between two fresh nodes, and what `traffic`
/// costs on it.
fn hpi_reliable(traffic: fn([&NcsNode; 2], &NcsConnection, &NcsConnection) -> Ledger) -> Ledger {
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
    let ledger = traffic([&a, &b], &ca, &cb);
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
        ("bytes", ledger.bytes, ceilings.bytes),
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
    let hpi = hpi_reliable(ping_pong);
    let sci = sci_bypass();
    let trains = hpi_reliable(stream);
    let bulk = hpi_reliable(bulk);
    let lossy = aci_lossy();
    println!("reliable HPI per message: {hpi:?}");
    println!("bypass SCI per message: {sci:?}");
    println!("reliable HPI stream per message: {trains:?}");
    println!("reliable HPI bulk stream per message: {bulk:?}");
    println!("lossy ACI stream per message: {lossy:?}");
    // The reliable HPI round trip: the thread that waits for the echo
    // runs its connection's task itself and reads the credit edge off the
    // channel beside the message, so each side sleeps once per message
    // and its event loop polls once (2.04-2.87 switches and 3.04-3.56
    // polls while the edge crossed both nodes' control tasks on their
    // event loops; 20 runs in debug and release builds, 6 of them beside
    // four busy loops, read 1.000-1.001 switches, polls and wake-ups).
    // Nothing is allocated per message: request completions, message
    // bodies and HPI frames are all recycled (9.03 allocations per message
    // before). Now and then a free list grows to a new peak inside the
    // measured round trips: of 18 debug runs 15 read 0 and 3 one or two
    // such allocations (0.0005-0.001 per message, 0.05-0.15 bytes).
    let hpi_ceilings = Ledger {
        switches: 1.2,
        polls: 1.2,
        wakeups: 1.2,
        fd_events: 0.0,
        allocations: 0.005,
        bytes: 1.0,
    };
    // The bypass SCI round trip: the waiting thread reads its own socket,
    // so it sleeps once per message and its event loop hears almost
    // nothing. The socket's frames are read into the buffer of the one
    // before. (Read: 1.00-1.10 switches and polls, at most 0.015
    // wake-ups and fd reports; 0-0.002 allocations and 0-4.3 bytes over
    // 18 runs, the same rare growth of a free list; 6.03 allocations
    // before.)
    let sci_ceilings = Ledger {
        switches: 1.2,
        polls: 1.15,
        wakeups: 0.05,
        fd_events: 0.05,
        allocations: 0.005,
        bytes: 10.0,
    };
    // The 8-byte stream: a window of 64 is two trains, and the sink's
    // receives take whole windows, so a thread sleeps once per 16
    // messages (once per 13 while a thread that waits on a send left its
    // connection's task to the event loop). A short message's body stays
    // in its submission, and a train's records are views of its body,
    // which the next train's records share once they are gone: no
    // allocation per message, record or train. What is left is the
    // ledger's own two `Vec`s per window, 0.031 allocations and 80 bytes
    // per message. (Read:
    // 0.0625-0.0627 switches, polls and wake-ups over 6 debug runs, and
    // 0.073-0.079 switches and 0.057-0.064 polls and wake-ups before the
    // send side claimed; 0.03125 allocations; 6.39-6.40 allocations
    // before bodies were recycled.)
    let stream_ceilings = Ledger {
        switches: 0.07,
        polls: 0.08,
        wakeups: 0.08,
        fd_events: 0.0,
        allocations: 0.04,
        bytes: 100.0,
    };
    // 64 KiB messages, 16 SDUs each: bodies and reassembled messages
    // take the buffer pool's large buffers, which they fit. The ledger's
    // own two `Vec`s per window of 4 are 0.5 allocations and 80 bytes per
    // message. Its client spins on `yield_now` for the sink between
    // windows, which the switches count. (Read: 6.60-6.71 switches,
    // 6.18-6.33 polls and wake-ups, 0.52-0.55 allocations and 160-330
    // bytes in debug runs; 8.56 switches, 8.24 polls, 0.5 allocations and
    // 80 bytes in 2 release runs.)
    let bulk_ceilings = Ledger {
        switches: 9.0,
        polls: 8.75,
        wakeups: 8.75,
        fd_events: 0.0,
        allocations: 0.6,
        bytes: 1.25 * 65_536.0,
    };
    // The lossy ACI stream: the ATM model has no thread of its own, so
    // the waiting threads and the event loops run the network at its
    // events' times. Against a pump thread (read on the same runs' code
    // before it went: 7.38-7.51 switches, 5.03-5.09 polls, 4.84-4.91
    // wake-ups, 79.1-79.4 allocations) switches fell and polls and
    // wake-ups rose: an event loop now wakes at the deadlines of the
    // frame ends the pump absorbed, and a frame put in flight rings its
    // receiver. Its counts follow the model's clock: which frame a lost
    // cell hits can move with timing. (Read over 40 runs, 4 beside two
    // busy loops: 5.89-5.98 switches, 6.72-6.91 polls, 6.17-6.42
    // wake-ups; once 6.12 switches. Allocations read 73.45-73.66 while
    // completions, bodies and the ledger's reading of `/proc` were
    // counted, and 67.11 in 8 runs since; its AAL5 reassembly and its
    // error control's buffers are what is left.)
    let lossy_ceilings = Ledger {
        switches: 6.3,
        polls: 7.1,
        wakeups: 6.6,
        fd_events: 0.0,
        allocations: 67.5,
        bytes: 145_000.0,
    };
    within("reliable HPI", &hpi, &hpi_ceilings);
    within("bypass SCI", &sci, &sci_ceilings);
    within("reliable HPI stream", &trains, &stream_ceilings);
    within("reliable HPI bulk stream", &bulk, &bulk_ceilings);
    within("lossy ACI stream", &lossy, &lossy_ceilings);
}
