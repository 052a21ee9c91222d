//! The paper's Figure 3 scenario: a heterogeneous environment of
//! homogeneous clusters, each wired with the interface its platform
//! supports best — HPI ("Trap") inside one cluster, ACI (native ATM)
//! inside another — interconnected over SCI (sockets).
//!
//! A four-node computation (parallel vector sum) spans all three domains
//! through the same NCS primitives, regardless of the interface
//! underneath.
//!
//! Run with: `cargo run --example multi_cluster`

use std::sync::Arc;

use ncs::atm::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs::core::link::{AciLink, HpiLinkPair, SciLink};
use ncs::core::{ConnectionConfig, NcsNode};
use ncs::transport::aci::AciFabric;
use ncs::transport::sci::SciListener;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Cluster 1 (homogeneous workstations): HPI between n0 and n1.
    let n0 = NcsNode::builder("n0").build();
    let n1 = NcsNode::builder("n1").build();
    let (l01, l10) = HpiLinkPair::create();
    n0.attach_peer("n1", l01);
    n1.attach_peer("n0", l10);

    // Cluster 2: native ATM between n2 and n3.
    let net = NetworkBuilder::new()
        .host("n2")
        .host("n3")
        .switch("sw")
        .link("n2", "sw", LinkSpec::oc3())
        .link("n3", "sw", LinkSpec::oc3())
        .build()?;
    let fabric = AciFabric::start(net, PumpConfig::speedup(8.0));
    let n2 = NcsNode::builder("n2").build();
    let n3 = NcsNode::builder("n3").build();
    let dev2 = Arc::new(fabric.device("n2")?);
    let dev3 = Arc::new(fabric.device("n3")?);
    n2.attach_peer(
        "n3",
        AciLink::new(Arc::clone(&dev2), "n3", QosParams::unspecified()),
    );
    n3.attach_peer(
        "n2",
        AciLink::new(Arc::clone(&dev3), "n2", QosParams::unspecified()),
    );

    // Inter-cluster bridge: SCI (TCP over loopback) between n0 and n2.
    let listener0 = Arc::new(SciListener::bind("127.0.0.1:0")?);
    let listener2 = Arc::new(SciListener::bind("127.0.0.1:0")?);
    let addr0 = listener0.local_addr()?;
    let addr2 = listener2.local_addr()?;
    n0.attach_peer("n2", SciLink::new(addr2, Arc::clone(&listener0)));
    n2.attach_peer("n0", SciLink::new(addr0, Arc::clone(&listener2)));

    // --- the computation: sum a vector split across all four nodes -----
    // n0 is the coordinator; ACI inside cluster 2 uses NCS reliability,
    // HPI and SCI links use the configs natural to them.
    let data: Vec<u64> = (1..=40_000).collect();
    let expect: u64 = data.iter().sum();
    let chunks: Vec<&[u64]> = data.chunks(10_000).collect();

    // Workers: n1 (HPI), n3 (via n2 over ACI), n2 itself, n0 local.
    let c01 = n0.connect("n1", ConnectionConfig::reliable())?;
    let w1 = n1.accept_default()?;
    let c02 = n0.connect("n2", ConnectionConfig::unreliable())?; // TCP is reliable
    let w2 = n2.accept_default()?;
    let c23 = n2.connect("n3", ConnectionConfig::reliable())?;
    let w3 = n3.accept_default()?;

    let encode = |xs: &[u64]| -> Vec<u8> { xs.iter().flat_map(|x| x.to_be_bytes()).collect() };
    let decode_sum = |bytes: &[u8]| -> u64 {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes")))
            .sum()
    };

    // Worker n1 (cluster 1, HPI).
    let h1 = std::thread::spawn(move || {
        let chunk = w1.recv().expect("n1 chunk");
        let sum = decode_sum(&chunk);
        w1.isend(&sum.to_be_bytes())
            .and_then(|r| r.wait())
            .expect("n1 reply");
    });
    // Worker n3 (cluster 2, ACI) — n2 forwards its chunk onward.
    let h3 = std::thread::spawn(move || {
        let chunk = w3.recv().expect("n3 chunk");
        let sum = decode_sum(&chunk);
        w3.isend(&sum.to_be_bytes())
            .and_then(|r| r.wait())
            .expect("n3 reply");
    });
    // Worker/gateway n2 (bridges SCI and ACI).
    let h2 = std::thread::spawn(move || {
        let own = w2.recv().expect("n2 own chunk");
        let forward = w2.recv().expect("n2 forward chunk");
        c23.isend(&forward)
            .and_then(|r| r.wait())
            .expect("forward to n3");
        let own_sum = decode_sum(&own);
        let n3_sum = u64::from_be_bytes(
            c23.recv().expect("n3 sum")[..8]
                .try_into()
                .expect("8 bytes"),
        );
        w2.isend(&(own_sum + n3_sum).to_be_bytes())
            .and_then(|r| r.wait())
            .expect("n2 reply");
    });

    // Coordinator distributes and gathers.
    c01.isend(&encode(chunks[1]))?.wait()?;
    c02.send(&encode(chunks[2]))?; // n2's own chunk
    c02.send(&encode(chunks[3]))?; // forwarded to n3
    let local_sum: u64 = chunks[0].iter().sum();
    let n1_sum = u64::from_be_bytes(c01.recv()?[..8].try_into()?);
    let cluster2_sum = u64::from_be_bytes(c02.recv()?[..8].try_into()?);
    let total = local_sum + n1_sum + cluster2_sum;

    println!(
        "interfaces used: n0-n1 {}, n0-n2 {}, n2-n3 ACI",
        c01.interface(),
        c02.interface()
    );
    println!("distributed sum = {total} (expected {expect})");
    assert_eq!(total, expect);

    h1.join().expect("n1");
    h2.join().expect("n2");
    h3.join().expect("n3");
    for n in [&n0, &n1, &n2, &n3] {
        n.shutdown();
    }
    fabric.shutdown();
    Ok(())
}
