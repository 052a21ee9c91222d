//! Buffer-pool integration tests: concurrent checkout/return under both
//! thread packages, exhaustion behaviour, a bulk stream's sender
//! recycling its buffers, and the byte-for-byte equivalence of the pooled
//! encode/decode paths with the original `Vec`-allocating ones.

use std::sync::Arc;
use std::time::Duration;

use ncs_core::link::HpiLinkPair;
use ncs_core::packet::{DataHeader, DataPacket};
use ncs_core::pool::BufPool;
use ncs_core::{ConnectionConfig, NcsNode};
use ncs_threads::{KernelPackage, ThreadPackage, ThreadPackageExt, UserRuntime};
use proptest::prelude::*;

/// `threads` workers, each checking out / filling / returning buffers
/// `iters` times, with a cooperative yield between rounds so green-thread
/// schedulers interleave.
fn hammer(pkg: Arc<dyn ThreadPackage>, pool: Arc<BufPool>, threads: usize, iters: usize) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let pkg2 = Arc::clone(&pkg);
            pkg.spawn_typed(&format!("pool-hammer-{t}"), move || {
                for i in 0..iters {
                    let mut a = pool.get();
                    assert!(a.is_empty(), "checked-out buffers must be cleared");
                    a.vec_mut().extend_from_slice(&[t as u8; 7]);
                    let b = pool.get();
                    assert_eq!(a.as_slice(), &[t as u8; 7]);
                    drop(b);
                    drop(a);
                    if i % 8 == 0 {
                        pkg2.yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer worker panicked");
    }
}

fn check_invariants(pool: &BufPool, expected_checkouts: u64) {
    let s = pool.stats();
    assert_eq!(s.checkouts, expected_checkouts);
    assert_eq!(
        s.checkouts,
        s.hits + s.misses,
        "every checkout is a hit or a miss: {s}"
    );
    assert_eq!(
        s.checkouts,
        s.returns + s.discards,
        "every buffer came back (or was discarded): {s}"
    );
    assert!(
        s.hits > 0,
        "a hammered pool must recycle at least once: {s}"
    );
}

#[test]
fn concurrent_checkout_return_kernel_package() {
    let pool = BufPool::with_config(4, 16, 64);
    let pkg: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    hammer(pkg, Arc::clone(&pool), 8, 500);
    check_invariants(&pool, 8 * 500 * 2);
}

#[test]
fn concurrent_checkout_return_user_package() {
    let pool = BufPool::with_config(4, 16, 64);
    let stats_pool = Arc::clone(&pool);
    UserRuntime::default().run(move |pkg| {
        hammer(Arc::new(pkg), stats_pool, 8, 500);
    });
    check_invariants(&pool, 8 * 500 * 2);
}

#[test]
fn exhaustion_falls_back_to_heap_under_load() {
    // A pool holding at most 2 buffers, with 16 live checkouts at once:
    // the 14 surplus checkouts must come from the heap, never block, and
    // never corrupt the free lists.
    let pool = BufPool::with_config(2, 1, 32);
    let live: Vec<_> = (0..16).map(|_| pool.get()).collect();
    let s = pool.stats();
    assert_eq!(s.checkouts, 16);
    assert_eq!(s.misses, 16, "an empty pool must allocate for everyone");
    drop(live);
    let s = pool.stats();
    assert_eq!(s.returns, 2, "only the pool's capacity is retained");
    assert_eq!(s.discards, 14);
    assert_eq!(pool.free_buffers(), 2);
    // The retained buffers now serve hits.
    let a = pool.get();
    let b = pool.get();
    let c = pool.get();
    assert_eq!(pool.stats().hits, 2);
    drop((a, b, c));
}

/// A one-way stream of 16 KiB messages (four SDUs each) over the HPI
/// bypass. Every pool checkout is an allocation the unpooled encode made
/// at the same call site, every miss one the pooled path still makes:
/// once warmed up, at most one checkout in two may miss.
#[test]
fn a_bulk_hpi_stream_recycles_the_senders_buffers() {
    const BULK: usize = 16 * 1024;
    // Enough frames to charge the free lists (the send queue plus a
    // couple of batches in flight); the stream then stays well inside the
    // 1,024-frame ring, which a bypass link would overrun silently.
    const WARMUP: usize = 50;
    const MEASURED: usize = 60;
    let tx = NcsNode::builder("bulk-tx").build();
    let rx = NcsNode::builder("bulk-rx").build();
    let (la, lb) = HpiLinkPair::with_capacity(1024);
    tx.attach_peer("bulk-rx", la);
    rx.attach_peer("bulk-tx", lb);
    let sender = tx
        .connect("bulk-rx", ConnectionConfig::unreliable())
        .expect("connect");
    let receiver = rx.accept_default().expect("accept");
    let payload = vec![0xB7u8; BULK];
    let stream = |n: usize| {
        for _ in 0..n {
            sender.send(&payload).expect("send");
        }
        for _ in 0..n {
            let m = receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("recv");
            assert_eq!(m.len(), BULK);
        }
    };
    stream(WARMUP);
    let before = tx.pool_stats();
    stream(MEASURED);
    let delta = tx.pool_stats().since(&before);
    assert!(
        delta.checkouts >= MEASURED as u64 && delta.misses <= delta.checkouts / 2,
        "the sender's encodes did not recycle: {delta}"
    );
    tx.shutdown();
    rx.shutdown();
}

proptest! {
    /// The pooled encode path — including encoding into a *recycled*,
    /// previously dirtied buffer — produces exactly the bytes of the
    /// original `Vec`-allocating `encode`, and both decode paths agree.
    #[test]
    fn pooled_encode_decode_round_trips_like_vec_path(
        conn: u32,
        src_conn: u32,
        session: u32,
        seq: u32,
        end: bool,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let packet = DataPacket {
            header: DataHeader { conn, src_conn, session, seq, end, tagged: false },
            payload,
        };
        let reference = packet.encode();

        let pool = BufPool::with_config(1, 2, 8);
        // Dirty a buffer and return it so the pooled encode below recycles
        // a used allocation rather than a fresh one.
        {
            let mut dirty = pool.get();
            dirty.vec_mut().extend_from_slice(&[0xEE; 512]);
        }
        let pooled = packet.encode_pooled(&pool);
        prop_assert_eq!(pooled.as_slice(), reference.as_slice());
        prop_assert!(pool.stats().hits >= 1, "encode must reuse the dirty buffer");

        // Direct header+slice framing (the bypass path) is identical too.
        let framed = packet.header.encode_frame_pooled(&packet.payload, &pool);
        prop_assert_eq!(framed.as_slice(), reference.as_slice());

        // Decode equivalence: the zero-copy view and the owned decode see
        // the same packet the seed path produced.
        let view = DataPacket::peek(&pooled).expect("peek pooled frame");
        prop_assert_eq!(view.header, packet.header);
        prop_assert_eq!(view.payload, packet.payload.as_slice());
        prop_assert_eq!(DataPacket::decode(&pooled).expect("decode"), packet);
    }
}
