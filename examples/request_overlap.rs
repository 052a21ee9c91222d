//! Compute/communication overlap with the nonblocking Request API.
//!
//! Two NCS nodes exchange a pipeline of large messages over HPI. The
//! driving thread posts a window of `irecv`s and `isend`s up front, then
//! turns to local computation, polling the whole heterogeneous window
//! with [`ncs::test_all`] between compute chunks — never blocking while
//! there is work to do. The runtime's Send/Receive threads move the data
//! underneath: the paper's overlap thesis expressed through requests.
//!
//! Two things are reported:
//!
//! * **overlap proof** — how many compute chunks finished while at least
//!   one request of the window was still in flight (`test_all` false).
//!   Any non-zero count is computation that blocking sends and receives
//!   (`isend(..)?.wait()`, `recv`) would have serialised behind the wire.
//! * **wall-clock comparison** — the same workload run blocking
//!   (send, recv, then compute) and overlapped (post requests, compute,
//!   collect). On a multi-core host the overlapped form approaches
//!   `max(compute, communicate)` per round instead of the sum; on a
//!   single hardware thread the two time-share and the chunk counter is
//!   the meaningful signal.
//!
//! Receives complete into pooled zero-copy [`ncs::MsgView`]s; dropping
//! each view recycles its buffer, so the steady state allocates nothing
//! per message.
//!
//! Run with: `cargo run --release --example request_overlap`

use std::time::{Duration, Instant};

use ncs::core::link::HpiLinkPair;
use ncs::core::{ConnectionConfig, NcsConnection, NcsNode};
use ncs::{test_all, wait_all, Completion};

const MSG_BYTES: usize = 256 * 1024;
const WINDOW: usize = 8;
const ROUNDS: usize = 4;
const CHUNK: usize = 64 * 1024;
/// Compute chunks each round owes, in both variants (identical work).
const CHUNKS_PER_ROUND: u64 = 24;

fn build_pair() -> (NcsNode, NcsNode, NcsConnection, NcsConnection) {
    let alice = NcsNode::builder("alice").build();
    let bob = NcsNode::builder("bob").build();
    let (la, lb) = HpiLinkPair::with_capacity(8192);
    alice.attach_peer("bob", la);
    bob.attach_peer("alice", lb);
    let ca = alice
        .connect("bob", ConnectionConfig::unreliable())
        .expect("connect");
    let cb = bob.accept_default().expect("accept");
    (alice, bob, ca, cb)
}

/// One compute chunk (a little FMA mill, kept honest via a data
/// dependency).
fn crunch(state: &mut f64) {
    let mut acc = *state;
    for i in 0..CHUNK {
        acc = acc.mul_add(1.000000119, (i % 17) as f64 * 1e-9);
    }
    *state = acc;
}

/// Echo peer: returns every message until it has echoed `count`.
fn spawn_echo(conn: NcsConnection, count: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for _ in 0..count {
            let msg = conn
                .recv_view(Duration::from_secs(60))
                .expect("echo receive");
            conn.send(&msg).expect("echo send");
            // Dropping the view here recycles its pooled buffer.
        }
    })
}

fn main() {
    let payload = vec![0xA7u8; MSG_BYTES];

    // --- Blocking baseline: communicate, then compute. -------------------
    let (alice, bob, ca, cb) = build_pair();
    let echo = spawn_echo(cb, WINDOW * ROUNDS);
    let mut state = 1.0f64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        // Communicate the whole window, then compute: strictly serial.
        for _ in 0..WINDOW {
            ca.send(&payload).expect("send");
            let back = ca.recv_timeout(Duration::from_secs(60)).expect("recv");
            assert_eq!(back.len(), MSG_BYTES);
        }
        for _ in 0..CHUNKS_PER_ROUND {
            crunch(&mut state);
        }
    }
    let blocking = t0.elapsed();
    echo.join().expect("echo");
    alice.shutdown();
    bob.shutdown();

    // --- Overlapped: post the window, compute while it flies. ------------
    let (alice, bob, ca, cb) = build_pair();
    let echo = spawn_echo(cb, WINDOW * ROUNDS);
    let mut state2 = 1.0f64;
    let mut chunks_while_in_flight = 0u64;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        // Post the whole window of receives and sends up front.
        let wants: Vec<_> = (0..WINDOW).map(|_| ca.irecv()).collect();
        let sents: Vec<_> = (0..WINDOW)
            .map(|_| ca.isend(&payload).expect("isend"))
            .collect();
        let set: Vec<&dyn Completion> = wants
            .iter()
            .map(|r| r as &dyn Completion)
            .chain(sents.iter().map(|r| r as &dyn Completion))
            .collect();
        // The same compute volume as the blocking round, but polled
        // against the in-flight window instead of queued behind it.
        for _ in 0..CHUNKS_PER_ROUND {
            if !test_all(&set) {
                chunks_while_in_flight += 1;
            }
            crunch(&mut state2);
        }
        assert!(wait_all(&set, Duration::from_secs(60)), "window stalled");
        drop(set);
        for want in wants {
            let view = want.wait().expect("irecv");
            assert_eq!(view.len(), MSG_BYTES);
        }
        for sent in sents {
            sent.wait().expect("isend");
        }
    }
    let overlapped = t0.elapsed();
    echo.join().expect("echo");
    let pool = bob.pool_stats();
    alice.shutdown();
    bob.shutdown();

    let total_chunks = CHUNKS_PER_ROUND * ROUNDS as u64;
    println!("request_overlap: {ROUNDS} rounds x {WINDOW} in-flight {MSG_BYTES}-byte round trips");
    println!(
        "  blocking    : {:8.1} ms ({total_chunks} compute chunks serialised behind the wire)",
        blocking.as_secs_f64() * 1e3
    );
    println!(
        "  overlapped  : {:8.1} ms (same {total_chunks} chunks, {chunks_while_in_flight} of them while requests were in flight)",
        overlapped.as_secs_f64() * 1e3
    );
    println!(
        "  echo-side pool: {:.1}% of buffer checkouts served without allocating",
        pool.hit_rate() * 100.0
    );
    assert!(
        chunks_while_in_flight > 0,
        "no compute chunk overlapped communication — overlap proof failed"
    );
    // Keep the states alive so the compute loops cannot be optimised out.
    assert!(state.is_finite() && state2.is_finite());
    println!("overlap proof: OK ({chunks_while_in_flight} chunks computed during communication)");
}
