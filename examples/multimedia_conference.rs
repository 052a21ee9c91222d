//! The paper's Figure 2 scenario: an interactive multimedia application
//! whose media streams get *different* per-connection QoS.
//!
//! Video and audio ride connections **without flow or error control**
//! (low latency; loss tolerated) and the video stream is rate-shaped;
//! the shared document ("text") rides a **reliable** connection with
//! credit-based flow control and selective repeat — all across the same
//! simulated ATM network between the same two participants.
//!
//! Run with: `cargo run --example multimedia_conference`

use std::sync::Arc;
use std::time::Duration;

use ncs::atm::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs::core::link::AciLink;
use ncs::core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsNode};
use ncs::transport::aci::AciFabric;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ATM network with a slightly lossy access link: media frames can
    // die, which is exactly why the text stream needs NCS error control.
    let net = NetworkBuilder::new()
        .host("participant1")
        .host("participant2")
        .switch("atm-switch")
        .link(
            "participant1",
            "atm-switch",
            LinkSpec::oc3().with_fault(FaultSpec::cell_loss(0.002, 42)),
        )
        .link("participant2", "atm-switch", LinkSpec::oc3())
        .build()?;
    let fabric = AciFabric::start(net, PumpConfig::speedup(4.0));

    let p1 = NcsNode::builder("participant1").build();
    let p2 = NcsNode::builder("participant2").build();
    let dev1 = Arc::new(fabric.device("participant1")?);
    let dev2 = Arc::new(fabric.device("participant2")?);
    p1.attach_peer(
        "participant2",
        AciLink::new(Arc::clone(&dev1), "participant2", QosParams::unspecified()),
    );
    p2.attach_peer(
        "participant1",
        AciLink::new(Arc::clone(&dev2), "participant1", QosParams::unspecified()),
    );

    // --- three streams, three configurations (the paper's Figure 2) ----
    // Video: no flow/error control, rate-shaped (CBR-like).
    let video_cfg = ConnectionConfig::builder()
        .sdu_size(8 * 1024)
        .flow_control(FlowControlAlg::RateBased {
            packets_per_sec: 300,
            burst: 8,
        })
        .error_control(ErrorControlAlg::None)
        .build();
    // Audio: no flow/error control at all (lowest latency).
    let audio_cfg = ConnectionConfig::unreliable();
    // Text: fully reliable.
    let text_cfg = ConnectionConfig::reliable();

    let video_tx = p1.connect("participant2", video_cfg)?;
    let video_rx = p2.accept_default()?;
    let audio_tx = p1.connect("participant2", audio_cfg)?;
    let audio_rx = p2.accept_default()?;
    let text_tx = p1.connect("participant2", text_cfg)?;
    let text_rx = p2.accept_default()?;

    // Participant 2 consumes the streams.
    let consumer = std::thread::spawn(move || {
        let mut video_frames = 0u32;
        let mut audio_frames = 0u32;
        let mut text_bytes = 0usize;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut document_done = false;
        while std::time::Instant::now() < deadline {
            if let Ok(f) = video_rx.recv_view(Duration::ZERO) {
                video_frames += 1;
                drop(f);
            }
            if let Ok(f) = audio_rx.recv_view(Duration::ZERO) {
                audio_frames += 1;
                drop(f);
            }
            if let Ok(f) = text_rx.recv_timeout(Duration::from_millis(5)) {
                text_bytes += f.len();
                if f.ends_with(b"<END>") {
                    document_done = true;
                }
            }
            if document_done {
                // The reliable document is in; drain whatever media is
                // still in flight before reporting.
                let drain_until = std::time::Instant::now() + Duration::from_millis(500);
                while std::time::Instant::now() < drain_until {
                    if let Ok(f) = video_rx.recv_timeout(Duration::from_millis(20)) {
                        video_frames += 1;
                        drop(f);
                    }
                    while let Ok(f) = audio_rx.recv_view(Duration::ZERO) {
                        audio_frames += 1;
                        drop(f);
                    }
                }
                break;
            }
        }
        (video_frames, audio_frames, text_bytes)
    });

    // Participant 1 produces: 30 video frames, 50 audio frames, a document.
    for i in 0..30u32 {
        let frame = vec![(i % 255) as u8; 6000]; // ~6 KB video frame
        video_tx.send(&frame)?;
    }
    for i in 0..50u32 {
        let sample = vec![(i % 255) as u8; 480]; // 480 B audio packet
        audio_tx.send(&sample)?;
    }
    let document: Vec<u8> = (0..40_000u32).map(|i| (i % 89) as u8).collect();
    text_tx
        .isend(&document)?
        .wait_timeout(Duration::from_secs(30))?;
    text_tx
        .isend(b"<END>")?
        .wait_timeout(Duration::from_secs(30))?;

    let (video_frames, audio_frames, text_bytes) = consumer.join().expect("consumer");
    println!("video frames delivered: {video_frames}/30 (loss tolerated, no retransmission)");
    println!("audio frames delivered: {audio_frames}/50 (loss tolerated)");
    println!("document bytes delivered reliably: {text_bytes} (selective repeat)");
    println!(
        "text connection: {} (retransmissions prove the error control earned its keep on a lossy link)",
        text_tx.stats()
    );
    println!("ATM fabric: {}", fabric.stats());
    assert_eq!(text_bytes, 40_000 + 5, "reliable stream must be complete");

    p1.shutdown();
    p2.shutdown();
    fabric.shutdown();
    Ok(())
}
