//! Quickstart: two NCS nodes exchanging reliable messages over the HPI
//! interface — the nonblocking Request API (isend/irecv, tag matching,
//! zero-copy `MsgView`) and the blocking compatibility wrappers over it
//! — plus the default configuration (credit-based flow control +
//! selective-repeat error control) and connection statistics.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Duration;

use ncs::core::link::HpiLinkPair;
use ncs::core::{ConnectionConfig, NcsNode};
use ncs::{wait_all, Completion};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two NCS processes (in one address space for the example), linked by
    // the High Performance Interface.
    let alice = NcsNode::builder("alice").build();
    let bob = NcsNode::builder("bob").build();
    let (link_a, link_b) = HpiLinkPair::create();
    alice.attach_peer("bob", link_a);
    bob.attach_peer("alice", link_b);

    // The paper's default reliable connection: 4 KB SDUs, credit-based
    // flow control, selective-repeat error control — which HPI's default
    // ring, one the credit window cannot overrun, leaves nothing to do:
    // the connection runs under the window alone.
    let tx = alice.connect("bob", ConnectionConfig::reliable())?;
    let rx = bob.accept_default()?;
    println!(
        "connection up: {} -> {} over {} ({:?} flow control)",
        alice.name(),
        tx.peer_name(),
        tx.interface(),
        tx.config().flow_control,
    );

    // The primary surface: nonblocking requests. Post the receive, post
    // the send, wait on both as one set, read the result zero-copy.
    let want = rx.irecv();
    let sent = tx.isend(b"hello from alice")?;
    let set: [&dyn Completion; 2] = [&want, &sent];
    assert!(wait_all(&set, Duration::from_secs(10)));
    let view = want.wait()?; // pooled MsgView: derefs to &[u8]
    println!("bob received: {:?}", std::str::from_utf8(&view)?);
    drop(view); // buffer recycles into bob's pool

    // Tag matching: independent logical channels over the same
    // connection, delivered per tag in FIFO order.
    tx.isend_tagged(7, b"on channel seven")?;
    tx.isend_tagged(3, b"on channel three")?;
    let three = rx.irecv_tagged(3).wait_timeout(Duration::from_secs(10))?;
    let seven = rx.irecv_tagged(7).wait_timeout(Duration::from_secs(10))?;
    println!(
        "bob received tag {} = {:?}, tag {} = {:?}",
        three.tag().unwrap(),
        std::str::from_utf8(&three)?,
        seven.tag().unwrap(),
        std::str::from_utf8(&seven)?,
    );

    // A multi-SDU message through the blocking compatibility wrappers
    // (thin shells over the same requests).
    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    tx.isend(&big)?.wait()?;
    let got = rx.recv()?;
    assert_eq!(got, big);
    println!("bob received a {} byte message intact", got.len());

    // And the reverse direction on the same connection.
    rx.isend(b"hello back")?.wait()?;
    println!("alice received: {:?}", String::from_utf8(tx.recv()?)?);

    println!("\nsender-side statistics: {}", tx.stats());
    println!("receiver-side statistics: {}", rx.stats());

    alice.shutdown();
    bob.shutdown();
    Ok(())
}
