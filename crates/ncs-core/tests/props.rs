//! Property-based tests for NCS core data structures and protocol state
//! machines.

use std::time::Duration;

use ncs_core::config::{ConnectionConfig, ErrorControlAlg, FlowControlAlg};
use ncs_core::error_control::{build_receiver, build_sender, AckInfo, ReceiverStep, SenderStep};
use ncs_core::packet::{CtrlMsg, DataHeader, DataPacket, Hello};
use ncs_core::seq::AckBitmap;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_flow_control() -> impl Strategy<Value = FlowControlAlg> {
    prop_oneof![
        Just(FlowControlAlg::None),
        (1u32..64, any::<bool>()).prop_map(|(c, d)| FlowControlAlg::CreditBased {
            initial_credits: c,
            dynamic: d,
        }),
        (1u32..64).prop_map(|w| FlowControlAlg::CreditBased {
            initial_credits: w,
            dynamic: false,
        }),
        (1u32..100_000, 1u32..64).prop_map(|(r, b)| FlowControlAlg::RateBased {
            packets_per_sec: r,
            burst: b,
        }),
    ]
}

fn arb_error_control() -> impl Strategy<Value = ErrorControlAlg> {
    prop_oneof![
        Just(ErrorControlAlg::None),
        (1u64..10_000, 0u32..20).prop_map(|(t, r)| ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_micros(t),
            max_retries: r,
        }),
        (1u32..64, 1u64..10_000, 0u32..20).prop_map(|(w, t, r)| ErrorControlAlg::GoBackN {
            window: w,
            timeout: Duration::from_micros(t),
            max_retries: r,
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = ConnectionConfig> {
    (256usize..=65536, arb_flow_control(), arb_error_control()).prop_map(
        |(sdu_size, flow_control, error_control)| ConnectionConfig {
            sdu_size,
            flow_control,
            error_control,
        },
    )
}

fn arb_bitmap() -> impl Strategy<Value = AckBitmap> {
    (1u32..512, proptest::collection::vec(any::<u32>(), 0..64)).prop_map(|(total, received)| {
        let mut bitmap = AckBitmap::all_missing(total);
        for r in received {
            bitmap.mark_received(r % total);
        }
        bitmap
    })
}

/// Every form an acknowledgement takes on the wire: a bitmap with SDUs
/// missing, a clean one (its SDU count alone), a cumulative one.
fn arb_ack_info() -> impl Strategy<Value = AckInfo> {
    prop_oneof![
        arb_bitmap().prop_map(AckInfo::Bitmap),
        (1..=AckBitmap::MAX_TOTAL)
            .prop_map(|total| AckInfo::Bitmap(AckBitmap::all_received(total))),
        any::<u32>().prop_map(AckInfo::Cumulative),
    ]
}

/// An acknowledgement in any of its forms, with the credit edge in it or
/// without.
fn arb_ack() -> impl Strategy<Value = CtrlMsg> {
    (
        any::<u32>(),
        any::<u32>(),
        arb_ack_info(),
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(|(conn, session, info, has_edge, edge)| CtrlMsg::Ack {
            conn,
            session,
            info,
            edge: has_edge.then_some(edge),
        })
}

/// A valid encoding from any of the decoders a peer's bytes reach: every
/// `CtrlMsg` and `Hello` variant, a bare configuration, a bare bitmap.
fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_ack().prop_map(|ack| ack.encode()),
        (any::<u32>(), any::<u32>())
            .prop_map(|(conn, credits)| CtrlMsg::Credit { conn, credits }.encode()),
        (any::<u32>(), any::<u32>()).prop_map(|(initiator_conn, acceptor_conn)| {
            CtrlMsg::AcceptConn {
                initiator_conn,
                acceptor_conn,
            }
            .encode()
        }),
        any::<u32>().prop_map(|conn| CtrlMsg::CloseConn { conn }.encode()),
        ("[a-z0-9.-]{0,12}", any::<u32>(), arb_config()).prop_map(
            |(node, initiator_conn, config)| Hello {
                node,
                initiator_conn,
                config
            }
            .encode()
        ),
        arb_config().prop_map(|c| c.encode()),
        arb_bitmap().prop_map(|b| b.encode()),
    ]
}

/// Runs `bytes` through every decoder that reads what a peer sent. None
/// may panic, and whatever one accepts must decode to the same value
/// again after a re-encode.
fn decoders_are_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(msg) = CtrlMsg::decode(bytes) {
        prop_assert_eq!(CtrlMsg::decode(&msg.encode()).ok(), Some(msg));
    }
    if let Ok(hello) = Hello::decode(bytes) {
        prop_assert_eq!(Hello::decode(&hello.encode()).ok(), Some(hello));
    }
    if let Ok(config) = ConnectionConfig::decode(bytes) {
        prop_assert_eq!(
            ConnectionConfig::decode(&config.encode()).ok(),
            Some(config)
        );
    }
    if let Ok(bitmap) = AckBitmap::decode(bytes) {
        prop_assert_eq!(AckBitmap::decode(&bitmap.encode()).ok(), Some(bitmap));
    }
    Ok(())
}

/// Runs `bytes` through the data-frame parser. It may not panic, a view
/// it returns borrows its payload from inside `bytes`, and the view's
/// header and payload encode to a frame that parses to them again.
fn data_peek_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(view) = DataPacket::peek(bytes) else {
        return Ok(());
    };
    let (outer, inner) = (bytes.as_ptr_range(), view.payload.as_ptr_range());
    prop_assert!(outer.start <= inner.start && inner.end <= outer.end);
    let again = view.to_packet().encode();
    let reparsed = DataPacket::peek(&again).expect("own encoding parses");
    prop_assert_eq!(
        (reparsed.header, reparsed.payload),
        (view.header, view.payload)
    );
    Ok(())
}

proptest! {
    #[test]
    fn data_peek_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        data_peek_is_total(&bytes)?;
    }

    /// A valid data frame with one byte changed, or cut short, or both —
    /// the length field and the flags byte included.
    #[test]
    fn data_peek_survives_mutated_frames(
        ids in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        flags in (any::<bool>(), any::<bool>()),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        edit in (any::<u8>(), any::<usize>()),
    ) {
        let ((conn, src_conn, session, seq), (end, tagged)) = (ids, flags);
        let (byte, cut) = edit;
        let header = DataHeader { conn, src_conn, session, seq, end, tagged };
        let bytes = DataPacket { header, payload }.encode();
        data_peek_is_total(&bytes)?;
        let mut mutated = bytes.clone();
        mutated[at % bytes.len()] = byte;
        data_peek_is_total(&mutated)?;
        data_peek_is_total(&bytes[..cut % bytes.len()])?;
        data_peek_is_total(&mutated[..cut % bytes.len()])?;
    }

    #[test]
    fn decoders_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        decoders_are_total(&bytes)?;
    }

    /// Noise behind a real control or hello tag and variant reaches every
    /// variant's field decoders.
    #[test]
    fn decoders_survive_arbitrary_bodies_behind_every_tag(
        hello: bool,
        variant in 0u8..8,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let tag = if hello {
            Hello { node: String::new(), initiator_conn: 0, config: ConnectionConfig::reliable() }.encode()[0]
        } else {
            CtrlMsg::CloseConn { conn: 0 }.encode()[0]
        };
        let mut bytes = vec![tag, variant];
        bytes.extend(body);
        decoders_are_total(&bytes)?;
    }

    /// A valid encoding with one byte changed, or cut short, or both.
    #[test]
    fn decoders_survive_mutated_encodings(
        bytes in arb_encoding(),
        at in any::<usize>(),
        byte: u8,
        cut in any::<usize>(),
    ) {
        let mut mutated = bytes.clone();
        mutated[at % bytes.len()] = byte;
        decoders_are_total(&mutated)?;
        decoders_are_total(&bytes[..cut % bytes.len()])?;
        decoders_are_total(&mutated[..cut % bytes.len()])?;
    }

    /// Connection configurations survive the wire round trip exactly.
    #[test]
    fn config_codec_round_trips(
        sdu in 256usize..=65536,
        fc in arb_flow_control(),
        ec in arb_error_control(),
    ) {
        let config = ConnectionConfig {
            sdu_size: sdu,
            flow_control: fc,
            error_control: ec,
        };
        prop_assert_eq!(ConnectionConfig::decode(&config.encode()).unwrap(), config);
    }

    /// Data packets survive the wire round trip.
    #[test]
    fn data_packet_codec_round_trips(
        conn: u32,
        src_conn: u32,
        session: u32,
        seq: u32,
        end: bool,
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let p = DataPacket {
            header: DataHeader { conn, src_conn, session, seq, end, tagged: false },
            payload,
        };
        prop_assert_eq!(DataPacket::decode(&p.encode()).unwrap(), p);
    }

    /// Corrupting any single byte of an encoded data packet never yields a
    /// *different* valid packet that still claims the same payload length.
    #[test]
    fn data_packet_decode_never_panics_on_corruption(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        at in 0usize..512,
        flip in 1u8..=255,
    ) {
        let p = DataPacket {
            header: DataHeader { conn: 1, src_conn: 2, session: 3, seq: 4, end: true, tagged: false },
            payload,
        };
        let mut bytes = p.encode();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        let _ = DataPacket::decode(&bytes); // must not panic
    }

    /// Control messages survive the wire round trip: every form of an
    /// acknowledgement, with its edge and without.
    #[test]
    fn ctrl_codec_round_trips(
        conn: u32,
        session: u32,
        bitmap in arb_bitmap(),
        credits in 1u32..1024,
        next in any::<u32>(),
    ) {
        let infos = [
            AckInfo::Bitmap(AckBitmap::all_received(bitmap.total())),
            AckInfo::Bitmap(bitmap),
            AckInfo::Cumulative(next),
        ];
        for info in infos {
            for edge in [None, Some(credits)] {
                let ack = CtrlMsg::Ack { conn, session, info: info.clone(), edge };
                prop_assert_eq!(CtrlMsg::decode(&ack.encode()).unwrap(), ack);
            }
        }
        for msg in [CtrlMsg::Credit { conn, credits }, CtrlMsg::CloseConn { conn }] {
            prop_assert_eq!(CtrlMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    /// Hello frames survive the wire round trip (arbitrary node names).
    #[test]
    fn hello_codec_round_trips(name in "[a-zA-Z0-9_.-]{0,40}", conn: u32) {
        let m = Hello {
            node: name,
            initiator_conn: conn,
            config: ConnectionConfig::reliable(),
        };
        prop_assert_eq!(Hello::decode(&m.encode()).unwrap(), m);
    }

    /// Bitmap invariants: missing() lists exactly the unmarked positions,
    /// in order, for every receive pattern.
    #[test]
    fn bitmap_tracks_any_pattern(
        total in 1u32..1024,
        marks in proptest::collection::vec(any::<u32>(), 0..256),
    ) {
        let mut b = AckBitmap::all_missing(total);
        let mut expect: std::collections::BTreeSet<u32> = (0..total).collect();
        for m in marks {
            let m = m % total;
            b.mark_received(m);
            expect.remove(&m);
        }
        prop_assert_eq!(b.missing(), expect.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(b.missing_count() as usize, expect.len());
        prop_assert_eq!(b.any_missing(), !expect.is_empty());
        // And the codec preserves it all.
        prop_assert_eq!(AckBitmap::decode(&b.encode()).unwrap(), b);
    }

    /// Selective repeat delivers the exact message under ANY loss pattern
    /// that the retry budget can cover, for any SDU arrival order the
    /// sender chooses to issue.
    #[test]
    fn selective_repeat_converges_under_random_loss(
        n_sdus in 1u32..40,
        loss_seed: u64,
        loss_denominator in 2u32..6, // drop 1-in-k on first transmission
    ) {
        let alg = ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(1),
            max_retries: 64,
        };
        let mut tx = build_sender(&alg);
        let mut rx = build_receiver(&alg).expect("a receiver strategy");
        let payloads: Vec<Vec<u8>> =
            (0..n_sdus).map(|i| vec![i as u8; 3]).collect();

        let mut rng = loss_seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        let mut delivered: Option<Vec<u8>> = None;
        let mut step = tx.begin(n_sdus);
        let mut rounds = 0;
        'outer: loop {
            rounds += 1;
            prop_assert!(rounds < 300, "did not converge");
            match std::mem::replace(&mut step, SenderStep::Wait) {
                SenderStep::Transmit(seqs) => {
                    let mut acks = Vec::new();
                    for s in seqs {
                        // Random loss on the "wire".
                        if next() % loss_denominator == 0 && rounds < 100 {
                            continue;
                        }
                        let end = s == n_sdus - 1;
                        match rx.on_packet(s, end, payloads[s as usize].clone()) {
                            ReceiverStep::Ack(a) => acks.push(a),
                            ReceiverStep::AckAndDeliver(a, m) => {
                                acks.push(a);
                                delivered = Some(m);
                            }
                            ReceiverStep::Deliver(m) => delivered = Some(m),
                            ReceiverStep::Continue => {}
                        }
                    }
                    // Acks may be lost too.
                    let mut progressed = false;
                    for a in acks {
                        if next() % loss_denominator == 0 && rounds < 100 {
                            continue;
                        }
                        match tx.on_ack(a) {
                            SenderStep::Done => break 'outer,
                            SenderStep::Transmit(t) => {
                                step = SenderStep::Transmit(t);
                                progressed = true;
                                break;
                            }
                            SenderStep::TransmitRange(t) => {
                                step = SenderStep::Transmit(t.collect());
                                progressed = true;
                                break;
                            }
                            SenderStep::Failed(why) => prop_assert!(false, "failed: {why}"),
                            SenderStep::Wait => {}
                        }
                    }
                    if !progressed {
                        step = tx.on_timeout();
                    }
                }
                SenderStep::TransmitRange(seqs) => step = SenderStep::Transmit(seqs.collect()),
                SenderStep::Done => break,
                SenderStep::Failed(why) => prop_assert!(false, "failed early: {why}"),
                SenderStep::Wait => step = tx.on_timeout(),
            }
        }
        let expect: Vec<u8> = payloads.concat();
        prop_assert_eq!(delivered.unwrap(), expect);
    }

    /// Go-back-N delivers the exact message under random in-flight drops
    /// (ordered transport semantics: surviving packets keep their order).
    #[test]
    fn go_back_n_converges_under_random_loss(
        n_sdus in 1u32..32,
        window in 1u32..8,
        loss_seed: u64,
    ) {
        let alg = ErrorControlAlg::GoBackN {
            window,
            timeout: Duration::from_millis(1),
            max_retries: 200,
        };
        let mut tx = build_sender(&alg);
        let mut rx = build_receiver(&alg).expect("a receiver strategy");
        let payloads: Vec<Vec<u8>> = (0..n_sdus).map(|i| vec![i as u8; 2]).collect();
        let mut rng = loss_seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        let mut delivered: Option<Vec<u8>> = None;
        let mut step = tx.begin(n_sdus);
        let mut rounds = 0;
        'outer: loop {
            rounds += 1;
            prop_assert!(rounds < 2000, "did not converge");
            match std::mem::replace(&mut step, SenderStep::Wait) {
                SenderStep::Transmit(seqs) => {
                    let mut last_ack = None;
                    for s in seqs {
                        if next() % 4 == 0 && rounds < 500 {
                            continue; // dropped
                        }
                        let end = s == n_sdus - 1;
                        match rx.on_packet(s, end, payloads[s as usize].clone()) {
                            ReceiverStep::Ack(a) => last_ack = Some(a),
                            ReceiverStep::AckAndDeliver(a, m) => {
                                last_ack = Some(a);
                                delivered = Some(m);
                            }
                            ReceiverStep::Deliver(m) => delivered = Some(m),
                            ReceiverStep::Continue => {}
                        }
                    }
                    match last_ack {
                        // Cumulative semantics: delivering only the latest
                        // ack is legal.
                        Some(a) if next() % 4 != 0 || rounds >= 500 => match tx.on_ack(a) {
                            SenderStep::Done => break 'outer,
                            SenderStep::Transmit(t) => step = SenderStep::Transmit(t),
                            SenderStep::TransmitRange(t) => step = SenderStep::Transmit(t.collect()),
                            SenderStep::Failed(why) => prop_assert!(false, "failed: {why}"),
                            SenderStep::Wait => step = tx.on_timeout(),
                        },
                        _ => step = tx.on_timeout(),
                    }
                }
                SenderStep::TransmitRange(seqs) => step = SenderStep::Transmit(seqs.collect()),
                SenderStep::Done => break,
                SenderStep::Failed(why) => prop_assert!(false, "failed early: {why}"),
                SenderStep::Wait => step = tx.on_timeout(),
            }
        }
        prop_assert_eq!(delivered.unwrap(), payloads.concat());
    }
}
